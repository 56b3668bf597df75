// Internal interface between the Myers bit-parallel driver (myers.cpp) and
// its per-ISA kernel translation units (myers_simd_avx2.cpp,
// myers_simd_avx512.cpp).
//
// The bit-vector recurrence (Myers 1999) is defined over the full m-bit
// pattern width; word size is an implementation detail.  Every kernel here
// evaluates that one recurrence exactly:
//
//   * the scalar kernel (myers.cpp) uses Hyyrö's blocked form, threading a
//     per-block horizontal delta `hin` through the column;
//   * the SIMD kernels evaluate the multi-word form directly: all blocks of
//     a column in parallel lanes, with the two genuinely sequential parts —
//     the big-integer addition's carry chain and the 1-bit cross-word
//     shifts of Ph/Mh — resolved lane-parallel.  Per-word generate (sum
//     overflowed) and propagate (sum == ~0) bits are gathered into scalar
//     masks, the whole carry chain is solved in O(1) with the same
//     bit-trick the recurrence itself uses (`((g << 1 | cin) + p) ^ p`),
//     and the resolved carry bits are re-injected per lane.  Shift carries
//     are the lanes' top bits, moved one lane up as a mask.
//
// The prefix pass (`MyersPrefixPass`) has lane kernels of its own that
// split the other way: a vector lane is one *text*, not one pattern word.
// Up to eight texts (the windows of one chunk at eight candidate starts)
// run against the same pattern, each word of the pattern being one vector
// of the texts' words, and Hyyrö's blocked step runs unchanged in every
// lane, its horizontal delta `hin` threaded word to word as a lane mask.
// Nothing crosses lanes but the gathers of each lane's mask row, so short
// patterns (the 2–5 words of an edit block) fill the vector where the
// stripe kernels would leave it idle.  The AVX-512 kernel runs all eight
// lanes in one vector, the AVX2 kernel four per vector, and the scalar
// kernel (myers.cpp) one lane after another.
//
// All kernels return identical scores and charge identical modelled work
// (`blocks` words per text column, aborting on the same column under a
// bound), so ISA dispatch can never perturb metering, golden traces, or
// `structural_hash()` — pinned by tests/test_seq_simd.cpp and the
// determinism suite.
//
// This header is included by scalar TUs and must stay free of intrinsics;
// the intrinsics headers live only in src/seq/*_simd*.cpp and
// src/common/cpu.* (enforced by mpcsd_verify conf-intrinsics).
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "seq/types.hpp"

namespace mpcsd::seq::detail {

/// State/mask rows are padded to this many words so 256- and 512-bit lane
/// loads never read past a row.  Padding words are zero in the mask table;
/// all cross-word flows (addition carries, shift carries) move upward only,
/// so padding can never feed back into real blocks.
inline constexpr std::size_t kStrideWords = 8;

/// Pattern preprocessing shared by every kernel: the pattern alphabet
/// remapped to dense ids, one row of `stride` equality words per id.  Id
/// `distinct` is an all-zero row for text symbols that do not occur in the
/// pattern, so lookups never branch.  Build cost is O(|a|) and the result
/// is immutable — the driver caches it per pattern so repeated rungs of a
/// guess ladder (same pattern, different bounds/texts) reuse one table.
struct MyersMasks {
  std::int64_t m = 0;         ///< pattern length (score starts here)
  std::size_t blocks = 0;     ///< ceil(m / 64) real words per row
  std::size_t stride = 0;     ///< blocks rounded up to kStrideWords
  std::vector<std::uint64_t> eq;  ///< (distinct + 1) rows of `stride` words
  std::unordered_map<Symbol, std::uint32_t> ids;
  // Direct-mapped symbol translation for compact alphabets: dense[s -
  // dense_min] is the row id, zero-row for gaps.  The hash find it replaces
  // costs a hardware modulo per text column — measurable against kernels
  // that spend ~3ns/word.  Built only when the pattern's symbol range is
  // O(m), so the table never dominates the O(m * sigma / 64) mask memory.
  std::vector<std::uint32_t> dense;
  std::int64_t dense_min = 0;

  explicit MyersMasks(SymView a)
      : m(static_cast<std::int64_t>(a.size())),
        blocks(static_cast<std::size_t>((m + 63) / 64)),
        stride((blocks + kStrideWords - 1) / kStrideWords * kStrideWords) {
    ids.reserve(a.size() * 2);
    for (std::size_t i = 0; i < a.size(); ++i) {
      const auto [it, inserted] =
          ids.try_emplace(a[i], static_cast<std::uint32_t>(ids.size()));
      if (inserted) eq.resize(eq.size() + stride, 0);
      eq[static_cast<std::size_t>(it->second) * stride + (i >> 6)] |=
          1ULL << (i & 63);
    }
    eq.resize(eq.size() + stride, 0);  // the zero row
    if (!a.empty()) {
      const auto [lo, hi] = std::minmax_element(a.begin(), a.end());
      const std::int64_t span = static_cast<std::int64_t>(*hi) -
                                static_cast<std::int64_t>(*lo) + 1;
      if (span <= std::max<std::int64_t>(4 * m, 1024)) {
        dense_min = *lo;
        dense.assign(static_cast<std::size_t>(span),
                     static_cast<std::uint32_t>(ids.size()));
        for (const auto& [sym, id] : ids) {
          dense[static_cast<std::size_t>(sym - dense_min)] = id;
        }
      }
    }
  }

  [[nodiscard]] const std::uint64_t* row(Symbol s) const {
    std::size_t id;
    if (!dense.empty()) {
      const auto off =
          static_cast<std::uint64_t>(static_cast<std::int64_t>(s) - dense_min);
      id = off < dense.size() ? dense[off] : ids.size();
    } else {
      const auto it = ids.find(s);
      id = it == ids.end() ? ids.size() : it->second;
    }
    return eq.data() + id * stride;
  }
};

/// One column-loop kernel: runs the recurrence over all of `b` (or until
/// the running score provably exceeds `bound` when `bound >= 0`), returns
/// the final score or nullopt on early abort.  `work` accumulates words
/// processed: `blocks` per completed column, identically in every kernel.
using MyersRunFn = std::optional<std::int64_t> (*)(const MyersMasks& masks,
                                                   SymView b,
                                                   std::int64_t bound,
                                                   std::uint64_t* work);

/// Per-ISA kernels, each defined in its own TU compiled with that ISA's
/// flags.  Returns nullptr when the toolchain could not build the kernel
/// (non-x86 target, missing compiler support) — the dispatcher then falls
/// through to the next narrower level.  Running the returned function is
/// only legal when `cpu::detected_isa()` reports the level.
MyersRunFn myers_run_avx2();
MyersRunFn myers_run_avx512();

/// Lanes of one prefix pass (`MyersPrefixPass::kMaxLanes`).
inline constexpr std::size_t kPassLanes = 8;

/// One prefix pass for a lane kernel.  Every array is laid out with
/// kPassLanes slots per column or word, lane l at slot l, whatever the
/// number of lanes run; slots of lanes at or past `lanes` hold the zero
/// row's offset in `rows`, and a kernel may compute them or not.
struct LanePass {
  std::size_t lanes = 0;            ///< 1..kPassLanes lanes to run
  std::size_t columns = 0;          ///< text columns every lane runs
  const std::uint64_t* rows = nullptr;  ///< columns × kPassLanes offsets
                                        ///< of mask rows into masks.eq
  const std::int64_t* keep = nullptr;   ///< ascending columns in [1, columns]
  std::size_t keep_count = 0;
  std::int64_t* scores = nullptr;   ///< (columns + 1) × kPassLanes scores,
                                    ///< column-major; column 0 is m
  std::uint64_t* kept = nullptr;    ///< keep_count × 2 × blocks × kPassLanes:
                                    ///< a kept column's Pv words, then its
                                    ///< Mv words, word-major
};

/// One lane kernel: runs every lane of `pass` over all its columns from
/// the all-+1 start (Pv = ~0, Mv = 0, score m), with the top boundary row
/// feeding +1, writes the score of each column and copies the state of
/// each kept column.
using MyersLanesFn = void (*)(const MyersMasks& masks, const LanePass& pass);

/// Per-ISA lane kernels, registered like the stripe kernels above:
/// nullptr when the toolchain could not build them, legal to run only when
/// `cpu::detected_isa()` reports the level.
MyersLanesFn myers_lanes_avx2();
MyersLanesFn myers_lanes_avx512();

/// The stripe kernels pay per-column fixed costs (mask gathers, carry
/// resolution), so they only dispatch at and above these block counts;
/// below them the scalar blocked loop wins.  Thresholds are functions of
/// the pattern length only — deterministic across hosts.
inline constexpr std::size_t kAvx2MinBlocks = 2;
inline constexpr std::size_t kAvx512MinBlocks = 8;

}  // namespace mpcsd::seq::detail
