// Pluggable execution backends for the MPC cluster simulator.
//
// `Cluster` is split into two halves:
//   * round orchestration (cluster.cpp) — input wrapping, metering, audit
//     hooks, obs spans, mail routing — backend-agnostic;
//   * machine-body execution (this layer) — how the per-machine bodies of
//     one round actually run and how their outputs come back.
//
// Two backends implement the contract:
//   * `ThreadBackend`  — the seed path: bodies run on the cluster's shared
//     thread pool inside one address space.  Extracted verbatim; pinned
//     byte-identical by the golden traces.
//   * `ProcessBackend` — bodies run in worker processes forked once per
//     cluster, in its first round.  A round is one kRound frame per worker
//     (body id, round, seed, machine range, params; inputs in a shared
//     memfd the workers map read-only), answered by a kBarrier frame and
//     the worker's shared-memory result arena.  A worker's writes never
//     reach the host or a sibling worker, so a stray pointer physically
//     cannot corrupt another worker's machines; a worker's later rounds
//     share its address space, as the machines of one worker already do
//     within a round.  A worker exits when its socket reaches EOF; a failed
//     round reaps the whole pool and the next round forks a fresh one.  See
//     backend_process.hpp and docs/BACKENDS.md.
//
// Every backend owns a `Transport` (mpc/transport.hpp): the uniform
// frames/bytes/flushes/barrier counters for its cross-machine bytes, which
// the cluster surfaces on the obs spine after each round.
//
// The determinism contract every backend must satisfy: given the same
// (inputs, body, seed, round), the per-machine outboxes (envelope order,
// destinations, payload bytes) and reports are identical —
// `ExecutionTrace::structural_hash()` and all metering cannot depend on
// the backend or on worker counts.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "common/bytes.hpp"
#include "common/thread_pool.hpp"
#include "mpc/body.hpp"
#include "mpc/stats.hpp"
#include "mpc/transport.hpp"
#include "obs/recorder.hpp"

namespace mpcsd::mpc {

class MachineContext;

enum class BackendKind : std::uint8_t {
  kAuto = 0,     ///< resolve from MPCSD_BACKEND (default: thread)
  kThread = 1,   ///< shared-address-space thread pool (seed semantics)
  kProcess = 2,  ///< forked worker processes + shared-memory result arenas
};

/// Parses a `MPCSD_BACKEND` / `--backend` value; nullopt if unrecognised.
[[nodiscard]] std::optional<BackendKind> backend_from_string(
    std::string_view name);

/// Lower-case kind name ("auto" | "thread" | "process"), for logs/flags.
[[nodiscard]] const char* backend_kind_name(BackendKind kind) noexcept;

/// Pure resolution of a requested kind against an environment override —
/// split out so the fallback policy is testable without touching the real
/// environment.  `kAuto` resolves through `env` (the MPCSD_BACKEND value,
/// null when unset); anything else wins outright.  `recognised` is false
/// only when `env` was consulted and named no known backend (the caller
/// warns once and falls back to the thread backend).
struct BackendResolution {
  BackendKind kind = BackendKind::kThread;
  bool recognised = true;
};
[[nodiscard]] BackendResolution resolve_backend(BackendKind requested,
                                                const char* env) noexcept;

/// Everything one round's machine bodies need, passed by pointer into the
/// cluster's round-scoped arenas: the backend fills `outboxes` and
/// `reports` for machines [0, machines); orchestration (metering,
/// routing, audit) stays in the cluster.  The body is a registered
/// capture-free function (mpc/body.hpp): what it reads besides its inbox
/// is `params`, decoded once per round in each executing process.
struct RoundWork {
  std::size_t round = 0;
  std::uint64_t seed = 0;
  /// Machines per scheduling chunk (parallel_for grain, process-backend
  /// claim size), resolved by the cluster from the machine count.
  std::size_t grain = 1;
  std::size_t machines = 0;
  const std::vector<ByteChain>* inputs = nullptr;
  /// The capture-free body every machine runs, and its encoded round params.
  BodyRef body;
  ByteSpan params;
  std::vector<std::vector<Envelope>>* outboxes = nullptr;
  std::vector<MachineReport>* reports = nullptr;
};

class ExecutionBackend {
 public:
  virtual ~ExecutionBackend() = default;

  /// Runs the bodies of one round and fills the output arenas.  Must be
  /// deterministic in everything metered (see header comment); only wall
  /// time may differ across backends and worker counts.
  virtual void execute(const RoundWork& work) = 0;

  [[nodiscard]] virtual const char* name() const noexcept = 0;

  /// The transport carrying this backend's cross-machine bytes; its
  /// counters feed the `transport.*` obs counters after every round.
  [[nodiscard]] virtual const Transport& transport() const noexcept = 0;
};

/// Builds the backend for `kind` (resolving kAuto through MPCSD_BACKEND,
/// warning once on an unrecognised value and falling back to the thread
/// backend).  `pool` sizes the execution: thread workers or forked worker
/// processes.  `recorder` feeds per-worker spans (process backend) into the
/// one merged trace; may be null.
std::unique_ptr<ExecutionBackend> make_backend(BackendKind kind,
                                               std::shared_ptr<ThreadPool> pool,
                                               obs::Recorder* recorder);

}  // namespace mpcsd::mpc
