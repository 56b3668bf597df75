// mpcsd-verify: scope and allowlist policy.
//
// Every rule is conditioned on *where* the code lives, mirroring the
// boundaries the repository's correctness argument names: the
// serialization layer may reinterpret_cast, the process backend may fork,
// the router owns its constants.  Paths are matched by suffix/segment so
// the same policy applies to the real tree and to the fixture corpus
// (fixtures mirror repo paths under tools/mpcsd_verify/fixtures/).
#pragma once

#include <string>
#include <string_view>

namespace mpcsd_verify {

/// Normalizes separators to '/' (no filesystem access).
[[nodiscard]] std::string normalize_path(std::string_view path);

/// True if `path` ends with `suffix` at a path-segment boundary
/// (e.g. "a/src/common/bytes.hpp" has suffix "src/common/bytes.hpp").
[[nodiscard]] bool path_ends_with(std::string_view path, std::string_view suffix);

/// True if `path` contains directory run `dir` ("src/mpc/") at segment
/// boundaries anywhere.
[[nodiscard]] bool path_in_dir(std::string_view path, std::string_view dir);

/// Last path segment (file name).
[[nodiscard]] std::string_view base_name(std::string_view path);

struct Policy {
  /// Confinement rules scan the roots scripts/lint.sh gates: library,
  /// fuzz harnesses, examples.  Tests deliberately violate invariants.
  [[nodiscard]] static bool in_lint_sources(std::string_view path);

  /// Files where the determinism rules apply file-wide (drivers, files that
  /// hold round bodies, router decision code); machine-body lambdas are
  /// determinism scopes everywhere.
  [[nodiscard]] static bool det_scoped_file(std::string_view path);

  /// Simulator/driver directories where `mutable` lambdas are banned
  /// outright (conf-mutable-lambda scope).
  [[nodiscard]] static bool mutable_scoped(std::string_view path);

  // --- per-rule allowlists -------------------------------------------------
  // conf-const-cast has none: every file in_lint_sources() is in scope.
  [[nodiscard]] static bool allow_reinterpret_cast(std::string_view path);
  [[nodiscard]] static bool allow_wall_seconds(std::string_view path);
  [[nodiscard]] static bool allow_intrinsics(std::string_view path);
  [[nodiscard]] static bool allow_process_primitives(std::string_view path);
  [[nodiscard]] static bool allow_router_constants(std::string_view path);
};

}  // namespace mpcsd_verify
