#include "mpc/backend.hpp"

#include <atomic>
#include <cstdlib>
#include <stdexcept>

#include "common/env.hpp"
#include "mpc/backend_process.hpp"
#include "mpc/backend_thread.hpp"

namespace mpcsd::mpc {

std::optional<BackendKind> backend_from_string(std::string_view name) {
  if (name == "auto") return BackendKind::kAuto;
  if (name == "thread") return BackendKind::kThread;
  if (name == "process") return BackendKind::kProcess;
  return std::nullopt;
}

const char* backend_kind_name(BackendKind kind) noexcept {
  switch (kind) {
    case BackendKind::kThread:
      return "thread";
    case BackendKind::kProcess:
      return "process";
    case BackendKind::kAuto:
      break;
  }
  return "auto";
}

BackendResolution resolve_backend(BackendKind requested,
                                  const char* env) noexcept {
  if (requested != BackendKind::kAuto) return {requested, true};
  if (env == nullptr) return {BackendKind::kThread, true};
  const auto parsed = backend_from_string(env);
  if (!parsed.has_value() || *parsed == BackendKind::kAuto) {
    return {BackendKind::kThread, parsed.has_value()};
  }
  return {*parsed, true};
}

std::unique_ptr<ExecutionBackend> make_backend(BackendKind kind,
                                               std::shared_ptr<ThreadPool> pool,
                                               obs::Recorder* recorder) {
  const char* env = std::getenv("MPCSD_BACKEND");
  const BackendResolution resolved = resolve_backend(kind, env);
  if (!resolved.recognised) {
    // Fail loudly, once per process: a typo'd override silently running the
    // thread backend would fake a process-isolation CI leg.
    static std::atomic<bool> warned{false};
    warn_env_once(warned, "MPCSD_BACKEND", env, "thread|process",
                  "using the thread backend");
  }
  if (resolved.kind == BackendKind::kProcess) {
#if defined(__linux__)
    return std::make_unique<ProcessBackend>(std::move(pool), recorder);
#else
    throw std::runtime_error(
        "the process execution backend requires Linux (fork + memfd)");
#endif
  }
  (void)recorder;
  return std::make_unique<ThreadBackend>(std::move(pool));
}

}  // namespace mpcsd::mpc
