// The single-machine combine DP (Algorithms 2 and 4 of the paper).
//
// Round 1 of both MPC algorithms produces tuples <[l, r), [gamma, kappa), d>
// — a block of s, a candidate substring of s̄, and their (Ulam or edit)
// distance.  The combine round selects a monotone subset of tuples covering
// a transformation of s into s̄:
//
//   D[a] = min( gap(origin -> a) + d_a,
//               min over b with r_b <= l_a, kappa_b <= gamma_a of
//                   D[b] + gap(b -> a) + d_a )
//   answer = min(gap(whole), min_a D[a] + gap(a -> end)),
//
// where gap(b -> a) charges the uncovered stretch between consecutive
// tuples.  The paper uses two gap models:
//   * GapCost::kMax — max(l_a - r_b, gamma_a - kappa_b): substitute the
//     paired part, indel the rest (Algorithm 2, Ulam).
//   * GapCost::kSum — (l_a - r_b) + (gamma_a - kappa_b): delete + insert
//     (Algorithm 4, edit distance).
//
// Both a naive O(T²) reference and fast solvers are provided:
//   * kSum: the cost splits as (l_a + gamma_a) + (D[b] - r_b - kappa_b), so
//     a sweep along s inserts tuple b at r_b and queries tuple a at l_a for
//     the min over kappa_b <= gamma_a, solved one of two exact ways:
//     - the Fenwick: a min-Fenwick over the ranked kappas, O(T log T) plus
//       two radix sorts (the kappa ranks, the insertion order);
//     - the dense sweep: the tuples bucketed by block_end with one counting
//       sort, O(T + n), and one dense min array over kappa in [0, n_bar]
//       whose prefix min is refolded once per distinct block_begin that
//       follows an insert, so each query is one read.  O(T + n + E·n_bar)
//       for E distinct block_begins: Algorithm 4's inbox has only n^x
//       blocks.
//     `combine_tuples` takes the dense sweep when E·(n_bar + 1) + n <=
//     T·⌈log2 T⌉ and its arrays, (n_bar + 1) + (n + 2) + T words, fit in
//     the two copies of the tuples the combine round charges as scratch;
//     otherwise the Fenwick runs.  Both charge 6·T.
//   * kMax: the same diagonal split as the sparse Ulam DP (the max cost
//     splits on r_b - kappa_b vs l_a - gamma_a), solved one of two exact
//     ways:
//     - the CDQ (`MaxCombineSolver`): divide-and-conquer over block order,
//       O(T log² T) — the "suitable data structure" the paper alludes to in
//       Section 5.2.3.  Segments split at the block boundary nearest their
//       midpoint; a segment in which no tuple can precede another (every
//       block_end lies past the last block_begin, e.g. all tuples of one
//       block) is skipped whole, and short segments run the quadratic rule
//       directly.
//     - the sweep along s: tuple b is inserted at r_b, tuple a queried at
//       l_a.  The diag_b <= diag_a side (cost l_a - r_b, needs kappa_b <=
//       gamma_a) is one dense array over s̄'s positions that every sweep
//       step *dilates* by its length (b serves gamma in [kappa_b, kappa_b +
//       p - r_b] at position p); the diag_b > diag_a side (cost gamma_a -
//       kappa_b) is a suffix min over a dense diagonal array, refolded once
//       per distinct l.  O(T + E·(n + n_bar)) for E distinct block
//       boundaries: Algorithm 2's inbox has only n^x blocks.
//     `combine_tuples` takes the sweep when E·(n + n_bar + 2) <=
//     T·⌈log2 T⌉² and its arrays, 3·(n + n_bar + 1) words, fit in the two
//     copies of the tuples the combine round charges as scratch; otherwise
//     (and in `MaxCombineSolver`, which Ulam candidate rows call directly)
//     the CDQ runs.  The metered work does not depend on the solver or its
//     shortcuts: it is always `max_combine_work(T)`.
// Every sort inside the fast solvers (the kSum Fenwick's kappa ranks and
// insertion order, each kMax cross's diag ranks, inserts and queries) is
// one stable LSD radix sort of (position, tuple index) pairs packed into a
// 64-bit word: 8-bit digits over the span max_key - min_key, so at most
// four linear passes, and the log factors above are the Fenwick's alone.
// The packing needs n + n_bar and T below 2^32 in both gap models.
// `combine_tuples` needs its input in block_begin order only and sorts it
// only when it is not (round-2 inboxes arrive in block order).
//
// `allow_overlap` (naive, kSum only) implements the Section 5.2.3 remark:
// two tuples whose windows intersect may both be chosen if gamma_b <=
// gamma_a, paying the cost of removing the common part.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/bytes.hpp"
#include "common/fenwick.hpp"
#include "seq/types.hpp"

namespace mpcsd::seq {

/// A (block, candidate substring, distance) tuple.  Intervals half-open.
struct Tuple {
  std::int64_t block_begin = 0;
  std::int64_t block_end = 0;
  std::int64_t window_begin = 0;
  std::int64_t window_end = 0;
  std::int64_t distance = 0;

  friend bool operator==(const Tuple&, const Tuple&) = default;
};

enum class GapCost : std::uint8_t {
  kMax,  ///< substitute-then-indel gap charging (Ulam, Algorithm 2)
  kSum,  ///< delete-plus-insert gap charging (edit distance, Algorithm 4)
};

struct CombineOptions {
  GapCost gap = GapCost::kMax;
  bool use_fast = true;       ///< Fenwick/CDQ solver instead of O(T²)
  bool allow_overlap = false; ///< Section 5.2.3 overlap remark (naive+kSum only)
};

/// Combines tuples into a full transformation cost of s (length n) into s̄
/// (length n_bar).  The result is always the cost of a realizable
/// transformation, hence an upper bound on the true distance.  The fast
/// solvers (kMax and kSum) need n + n_bar and the tuple count below 2^32
/// (checked); the naive path and `allow_overlap` have no such limit.
std::int64_t combine_tuples(std::vector<Tuple> tuples, std::int64_t n,
                            std::int64_t n_bar, const CombineOptions& options = {},
                            std::uint64_t* work = nullptr);

/// Work either fast kMax solver charges for T = m tuples: the model's
/// halving divide-and-conquer pays 10·len for the cross over every segment
/// of len >= 2 tuples, which sums to 10·(m·(k+2) − 2^(k+1)) with
/// k = ⌊log2 m⌋ (0 for m <= 1).
std::uint64_t max_combine_work(std::uint64_t m);

/// The CDQ kMax solver with scratch that survives between calls, for
/// callers that solve many small instances (one per Ulam candidate row).
/// `tuples` must be valid for (n, n_bar) and sorted by block_begin, with
/// n + n_bar and the tuple count below 2^32 (all checked); the result equals
/// `combine_tuples` with `GapCost::kMax` on the same tuples, and
/// `max_combine_work(tuples.size())` is added to `*work`.
class MaxCombineSolver {
 public:
  std::int64_t solve(std::span<const Tuple> tuples, std::int64_t n,
                     std::int64_t n_bar, std::uint64_t* work = nullptr);

  /// The last `solve`'s DP value of every tuple, by index: the cheapest
  /// chain that ends with that tuple (start gap, the gaps between its
  /// tuples and their distances), before the end gap.  A tuple's value
  /// depends only on the tuples that may precede it, so it holds for any
  /// subset of the input that keeps them.
  [[nodiscard]] std::span<const std::int64_t> dp() const noexcept { return dp_; }

 private:
  void solve_range(std::size_t lo, std::size_t hi);
  void solve_leaf(std::size_t lo, std::size_t hi);
  void cross(std::size_t lo, std::size_t mid, std::size_t hi);
  [[nodiscard]] bool has_chainable_pair(std::size_t lo, std::size_t hi) const;

  std::span<const Tuple> tuples_;
  std::int64_t diag_shift_ = 0;
  std::vector<std::int64_t> dp_;
  // Per-cross scratch; a cross never recurses, so one set serves them all.
  std::vector<std::uint64_t> keys_;
  std::vector<std::uint64_t> queries_;
  std::vector<std::uint32_t> rank_;
  std::vector<std::uint64_t> scratch_;  // the radix sort's second buffer
  FenwickMin<std::int64_t> fenwick_{0};
};

/// O(T²) reference (used by tests to pin the fast solvers).
std::int64_t combine_tuples_naive(std::vector<Tuple> tuples, std::int64_t n,
                                  std::int64_t n_bar,
                                  const CombineOptions& options = {},
                                  std::uint64_t* work = nullptr);

/// Serialises a length-prefixed batch of tuples onto a message.
void write_tuples(ByteWriter& writer, std::span<const Tuple> tuples);

/// Reads every tuple batch left in `reader` into one array, in batch
/// order: the array is reserved from the bytes left and each batch is one
/// bulk copy.  The combine stages' input codec (mpc/combine_round.hpp) and
/// both overloads below are this decoder.  A batch count past the bytes
/// left throws `ContractViolation` before the array grows.
std::vector<Tuple> read_all_tuples(ChainReader& reader);

/// Reads every tuple batch of a mailbox view (one fragment per sender
/// payload) in place, without concatenating the fragments first.
std::vector<Tuple> read_all_tuples(const ByteChain& payload);

/// Reads every tuple batch of one contiguous payload.
std::vector<Tuple> read_all_tuples(const Bytes& payload);

}  // namespace mpcsd::seq
