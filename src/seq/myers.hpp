// Myers' bit-parallel edit distance (Myers 1999, blocked form after
// Hyyrö 2003): exact Levenshtein distance in O(|a|·|b|/64) word operations.
//
// This is the fast exact engine behind `edit_distance_fast` (see
// edit_distance_fast.hpp for the dispatch rules): ~w-fold fewer operations
// than the scalar row DP for moderate-to-large distances, independent of
// the answer.  Symbols are arbitrary 32-bit values; the pattern's alphabet
// is remapped to dense ids so the equality bitmasks live in one flat,
// cache-friendly table regardless of alphabet size.  The table is cached
// per pattern (thread-local LRU), so guess-ladder rungs and window oracles
// that re-probe one pattern pay the O(|a|) build once.
//
// Multi-word patterns additionally dispatch to SIMD kernels (AVX2/AVX-512
// lane-parallel stripes, see myers_kernel.hpp) picked at runtime from the
// CPU's capabilities (common/cpu.hpp) — same values, same metering, wider
// columns per cycle.  One binary runs everywhere; `MPCSD_FORCE_ISA` and
// `force_isa()` clamp the choice for tests and benches.
//
// The `work` meter counts 64-bit words processed (columns × blocks), the
// bit-parallel analogue of DP cells; `edit_distance_fast` converts this to
// modelled DP cells so Table 1 metering stays cell-based.  Every kernel
// charges identically, so golden traces and `structural_hash()` are
// ISA-independent.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "common/cpu.hpp"
#include "seq/types.hpp"

namespace mpcsd::seq {

/// Exact edit distance via the blocked bit-parallel recurrence.
/// O(ceil(|a|/64) * |b|) word ops, O(ceil(|a|/64) * distinct(a)) memory.
std::int64_t edit_distance_myers(SymView a, SymView b, std::uint64_t* work = nullptr);

/// k-bounded variant: the exact distance when it is <= k, std::nullopt
/// otherwise.  Runs the same blocked recurrence but aborts as soon as the
/// running score certifies distance > k (score at column j lower-bounds the
/// final distance by score - (|b| - j)).  Cost never exceeds the unbounded
/// run and the early abort makes censored pairs cheap; unlike the scalar
/// band, cost does not grow with k, so no doubling driver is needed.
std::optional<std::int64_t> edit_distance_myers_bounded(SymView a, SymView b,
                                                        std::int64_t k,
                                                        std::uint64_t* work = nullptr);

/// Banded variant: the exact distance when it is <= k, std::nullopt
/// otherwise, touching only the word blocks that cover the Ukkonen band
/// |i - j| <= k — O((|b| + 1) * (2k/64 + 2)) word ops instead of the full
/// ceil(|a|/64) per column.  This is what makes the output-sensitive
/// doubling driver (edit_distance_os.hpp) O(n + k*n/w) rather than
/// O(n*m/w) per attempt.
///
/// The kernel slides a block window [first, last] down the pattern as the
/// text column advances.  Out-of-window state is replaced by cellwise
/// *upper bounds*: the window's top boundary feeds a +1 horizontal delta
/// (the largest the DP admits), and a block entering at the bottom is
/// initialised to all-+1 vertical deltas (D[i+1][j] <= D[i][j] + 1).  The
/// recurrence is the min-DP, monotone in its inputs, so every computed
/// value is >= the true one; and any cell with true value <= k has an
/// optimal path confined to the band (|i - j| <= value), which the window
/// always covers, so such cells compute exactly.  Hence final score <= k
/// iff the true distance is <= k, and then they are equal — the same
/// argument as Ukkonen's band, run on blocks.
///
/// Shares the thread-local pattern mask cache with the full-width kernels;
/// the window walk itself is scalar (the SIMD stripes want all blocks of a
/// column, exactly what the band avoids touching).  `work` accumulates
/// words processed: window width per column, a pure function of
/// (|a|, |b|, k) — deterministic across hosts and ISA levels.
std::optional<std::int64_t> edit_distance_myers_banded(SymView a, SymView b,
                                                       std::int64_t k,
                                                       std::uint64_t* work = nullptr);

namespace detail {
struct MyersMasks;
}  // namespace detail

/// Every prefix of up to eight texts against one pattern from a single
/// pass: the texts are windows of one chunk that start at different
/// offsets (the candidate starts of one edit task).
///
/// `run(chunk, lanes, keep)` runs the full-width blocked recurrence of the
/// pattern (masks built once, at construction) in `lanes.size()` lanes side
/// by side, with no bound: lane l is the pattern over
/// chunk[offset_l, offset_l + len), len the largest reach of any lane.  A
/// lane records the score D[m][c] of every column c (m = |pattern|) and
/// keeps the vertical deltas (Pv, Mv) of each column in `keep` (c < m, the
/// union of the lanes' kept columns).  Past the chunk's end a lane reads
/// the zero row (a symbol the pattern lacks); such columns lie beyond its
/// own reach, and a lane is answered only for its own columns, up to its
/// own reach.  Scores are stored column-major, the kept deltas word-major
/// with one word per lane, so the lanes of a column are adjacent.
///
/// `bounded(lane, len, k)` then returns, without running a kernel, exactly
/// what `edit_distance_myers_bounded(shorter, longer, k, &words)` returns
/// for the pattern against the lane's text[0, len), the shorter side being
/// the pattern (on a tie, the pass's pattern) — the distance and the word
/// meter:
///   * len >= m: the run aborts at the first column c with
///     D[m][c] + c > k + len, a monotone sum (adjacent scores differ by at
///     most 1), else answers D[m][len];
///   * len < m (a kept column): the prefix is the pattern and the pass's
///     pattern the text, so the run aborts at the first row i in 1..m with
///     D[i][len] + i > k + m, read from column len's deltas down from
///     D[0][len] = len, else answers D[m][len].
///
/// The lanes run on the widest lane kernel `active_isa()` allows
/// (myers_kernel.hpp): eight lanes in one AVX-512 vector, four per AVX2
/// vector, or the scalar blocked loop one lane after another.  Every kernel
/// computes the same scores and deltas, and no answer depends on which
/// lanes share a pass, so a one-lane pass answers as an eight-lane one.
/// No thread-local mask cache.
class MyersPrefixPass {
 public:
  /// Most lanes one pass runs.
  static constexpr std::size_t kMaxLanes = 8;

  /// One lane's text: chunk[offset, offset + reach) is what it answers.
  struct Lane {
    std::int64_t offset = 0;
    std::int64_t reach = 0;
  };

  /// What the equivalent bounded run returns and meters.
  struct Answer {
    std::optional<std::int64_t> distance;
    std::uint64_t words = 0;
  };

  explicit MyersPrefixPass(SymView pattern);  ///< pattern non-empty
  ~MyersPrefixPass();
  MyersPrefixPass(const MyersPrefixPass&) = delete;
  MyersPrefixPass& operator=(const MyersPrefixPass&) = delete;

  /// 1 to kMaxLanes lanes, each with offset >= 0, reach >= 0 and
  /// offset + reach <= |chunk|; `keep` ascending and distinct, each in
  /// [1, min(m - 1, largest reach)].
  void run(SymView chunk, std::span<const Lane> lanes,
           std::span<const std::int64_t> keep);

  /// `lane` < the last run's lane count and `len` <= its reach; a `len`
  /// in [1, m) must be kept.
  [[nodiscard]] Answer bounded(std::size_t lane, std::int64_t len,
                               std::int64_t k) const;

 private:
  std::unique_ptr<const detail::MyersMasks> masks_;
  std::vector<Lane> lanes_;
  std::vector<std::int64_t> keep_;
  std::vector<std::uint64_t> rows_;    ///< per column, per lane: a mask row
  std::vector<std::int64_t> scores_;   ///< scores_[c * kMaxLanes + l] = D[m][c]
  std::vector<std::uint64_t> kept_;    ///< per kept column: Pv then Mv words
};

/// The ISA level the blocked engine dispatches to for a pattern of
/// `pattern_len` symbols under the current `active_isa()`.  Introspection
/// for tests and benches; a pure function of (active level, pattern size).
[[nodiscard]] Isa myers_dispatch_isa(std::size_t pattern_len);

}  // namespace mpcsd::seq
