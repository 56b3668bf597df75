#include "policy.hpp"

namespace mpcsd_verify {

std::string normalize_path(std::string_view path) {
  std::string out(path);
  for (char& c : out) {
    if (c == '\\') c = '/';
  }
  return out;
}

bool path_ends_with(std::string_view path, std::string_view suffix) {
  if (suffix.size() > path.size()) return false;
  if (path.substr(path.size() - suffix.size()) != suffix) return false;
  if (suffix.size() == path.size()) return true;
  return path[path.size() - suffix.size() - 1] == '/';
}

bool path_in_dir(std::string_view path, std::string_view dir) {
  // `dir` ends with '/'; match "<...>/dir<...>" or "dir<...>".
  if (path.substr(0, dir.size()) == dir) return true;
  std::string needle("/");
  needle += dir;
  return path.find(needle) != std::string_view::npos;
}

std::string_view base_name(std::string_view path) {
  const auto pos = path.rfind('/');
  return pos == std::string_view::npos ? path : path.substr(pos + 1);
}

bool Policy::in_lint_sources(std::string_view path) {
  return path_in_dir(path, "src/") || path_in_dir(path, "fuzz/") ||
         path_in_dir(path, "examples/");
}

bool Policy::det_scoped_file(std::string_view path) {
  // Drivers and every file that holds a round body: the plan driver, the
  // MPC primitives, the shared combine body, the batch driver and the
  // solver pipelines; router decision code.  Round bodies are named
  // functions, not lambdas, so their files must be in scope whole.  The
  // cluster itself runs bodies, it does not decide.
  if (path_in_dir(path, "src/ulam_mpc/") || path_in_dir(path, "src/edit_mpc/"))
    return true;
  const std::string_view stems[] = {
      "src/mpc/plan.hpp",       "src/mpc/plan.cpp",
      "src/mpc/primitives.hpp", "src/mpc/primitives.cpp",
      "src/mpc/combine_round.hpp", "src/core/batch.hpp",
      "src/core/batch.cpp",     "src/core/router.hpp",
      "src/core/router.cpp",
  };
  for (const auto s : stems) {
    if (path_ends_with(path, s)) return true;
  }
  return false;
}

bool Policy::mutable_scoped(std::string_view path) {
  return path_in_dir(path, "src/mpc/") || path_in_dir(path, "src/ulam_mpc/") ||
         path_in_dir(path, "src/edit_mpc/") || path_in_dir(path, "src/core/");
}

bool Policy::allow_reinterpret_cast(std::string_view path) {
  if (path_ends_with(path, "src/common/bytes.hpp")) return true;
  if (path_in_dir(path, "fuzz/")) return true;
  // SIMD kernel TUs: vector load/store intrinsics over TU-owned buffers.
  const std::string_view base = base_name(path);
  return path_in_dir(path, "src/seq/") &&
         base.find("_simd") != std::string_view::npos;
}

bool Policy::allow_wall_seconds(std::string_view path) {
  return path_in_dir(path, "src/obs/") ||
         path_ends_with(path, "src/mpc/cluster.cpp") ||
         path_ends_with(path, "src/mpc/stats.cpp");
}

bool Policy::allow_intrinsics(std::string_view path) {
  const std::string_view base = base_name(path);
  if (path_in_dir(path, "src/seq/") &&
      base.find("_simd") != std::string_view::npos && path_ends_with(path, base) &&
      base.size() > 4 && base.substr(base.size() - 4) == ".cpp")
    return true;
  return path_ends_with(path, "src/common/cpu.hpp") ||
         path_ends_with(path, "src/common/cpu.cpp");
}

bool Policy::allow_process_primitives(std::string_view path) {
  return path_ends_with(path, "src/mpc/backend_process.cpp");
}

bool Policy::allow_router_constants(std::string_view path) {
  return path_ends_with(path, "src/core/router.hpp") ||
         path_ends_with(path, "src/core/router.cpp");
}

}  // namespace mpcsd_verify
