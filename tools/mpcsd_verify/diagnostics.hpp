// mpcsd-verify: diagnostic catalog.
//
// One entry per conformance invariant the analyzer proves over the lexed
// token stream (token_engine.hpp).  The catalog is the single source of
// truth for diagnostic names and summaries; the --self-test mode pins the
// engine to exactly the annotated findings of the fixture corpus.
//
// Identifier scheme (machine bodies cannot capture host state at all: a
// capturing lambda does not convert to a round body, see mpc/body.hpp):
//   det-*     determinism (trace hashes must be backend/worker invariant)
//   conf-*    confinement (a boundary-sensitive construct outside the one
//             file or directory that owns it; see docs/TOOLING.md)
#pragma once

#include <array>
#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

namespace mpcsd_verify {

enum class DiagId {
  kDetUnorderedIter,
  kDetWallClock,
  kDetPointerKeyed,
  kConfMutableLambda,
  kConfReinterpretCast,
  kConfConstCast,
  kConfWallSeconds,
  kConfIntrinsics,
  kConfProcessPrimitive,
  kConfRouterConstant,
  kCount_,
};

struct DiagInfo {
  DiagId id;
  std::string_view name;  ///< stable kebab-case identifier
  std::string_view summary;
};

inline constexpr std::array<DiagInfo, static_cast<std::size_t>(DiagId::kCount_)>
    kCatalog{{
        {DiagId::kDetUnorderedIter, "det-unordered-iter",
         "iteration over an unordered container in a machine body or "
         "driver/router scope; bucket order is implementation-defined so "
         "emitted bytes would not be portable across libraries"},
        {DiagId::kDetWallClock, "det-wall-clock",
         "direct std::chrono clock read in a machine body or driver/router "
         "scope; wall time flows only through common/timer.hpp Stopwatch "
         "on the host side (metering excludes it)"},
        {DiagId::kDetPointerKeyed, "det-pointer-keyed",
         "pointer-keyed associative container or std::hash over a pointer "
         "in a machine body or driver/router scope; iteration/hash order "
         "would depend on allocation addresses"},
        {DiagId::kConfMutableLambda, "conf-mutable-lambda",
         "mutable lambda in simulator/driver code (or any machine body); "
         "mutable captured state is exactly the cross-machine sharing the "
         "runtime auditor exists to catch"},
        {DiagId::kConfReinterpretCast, "conf-reinterpret-cast",
         "reinterpret_cast outside common/bytes.hpp or the SIMD kernel "
         "TUs; route bytes through ByteWriter/ByteReader"},
        {DiagId::kConfConstCast, "conf-const-cast",
         "const_cast in library, fuzz or example code; a machine body that "
         "casts away its inbox view's const writes mail another machine may "
         "share (no file is allowed one)"},
        {DiagId::kConfWallSeconds, "conf-wall-seconds",
         "RoundReport::wall_seconds written outside src/obs/, "
         "src/mpc/cluster.cpp, src/mpc/stats.cpp; route timing through "
         "the observability spine"},
        {DiagId::kConfIntrinsics, "conf-intrinsics",
         "intrinsics header outside src/seq/*_simd*.cpp and "
         "src/common/cpu.*; keep ISA-specific code behind the dispatch "
         "boundary"},
        {DiagId::kConfProcessPrimitive, "conf-process-primitive",
         "process/shared-memory primitive outside "
         "src/mpc/backend_process.cpp; keep isolation in the backend "
         "boundary"},
        {DiagId::kConfRouterConstant, "conf-router-constant",
         "kRouter* constant outside src/core/router.*; cost-model knobs "
         "stay in the router boundary"},
    }};

[[nodiscard]] constexpr const DiagInfo& info(DiagId id) {
  return kCatalog[static_cast<std::size_t>(id)];
}

[[nodiscard]] constexpr std::string_view name_of(DiagId id) {
  return info(id).name;
}

/// Parses a catalog name back to its id; returns false if unknown.
[[nodiscard]] inline bool parse_diag_name(std::string_view name, DiagId* out) {
  for (const DiagInfo& d : kCatalog) {
    if (d.name == name) {
      *out = d.id;
      return true;
    }
  }
  return false;
}

/// One finding: where and what.  `detail` names the offending entity
/// (captured variable, container, constant) for the human report.
struct Diagnostic {
  DiagId id{};
  std::string file;
  unsigned line = 0;
  std::string detail;
};

using Diagnostics = std::vector<Diagnostic>;

}  // namespace mpcsd_verify
