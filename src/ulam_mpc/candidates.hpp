// Algorithm 1 of the paper: per-block candidate-substring construction for
// the Ulam MPC algorithm (round 1, one block per machine).
//
// Given a block s[l, r) and the position of each block character in s̄, the
// machine produces a set of tuples <[l, r), [gamma, kappa), d> where
// s̄[gamma, kappa) is a candidate substring and d its exact Ulam distance to
// the block.  Candidates come from two constructions:
//
//   * u_i < B/2  (Lemma 1): solve local Ulam (lulam) to locate the best
//     window s̄[gamma*, kappa*); grid the starting/ending points within
//     2*û of it with gap G = max(floor(eps'*u), 1).
//   * u_i >= B/2 (Lemma 2): sample a hitting set I of block characters at
//     rate theta = (theta_constant / (eps'*B)) * ln(n); every unchanged
//     character anchors a window, gridded within û of the anchor.
//
// Since u_i is unknown, all guesses u = (1+eps')^j are tried; guesses below
// the lulam optimum d* are skipped (no window can be that close, so such a
// level can never be the one whose analysis applies).  Candidates are
// deduplicated across levels and each is evaluated once with the
// band-filtered exact Ulam engine (capped at 4û so that a level's good
// candidate — at distance <= (1+2eps')u — is never pruned).
//
// The per-candidate engine works on diagonal runs: the block's maximal
// runs of match points (p, q), (p+1, q+1), ... are built once, and a
// candidate clips each run to its window and its band, then runs the
// max-gap chain DP over the clipped runs.  That is exact:
//   * a whole run shares one diagonal, so the band |q - sp - p| <= cap
//     keeps or drops it entirely — and band filtering never changes an
//     answer <= cap (any alignment that cheap stays inside the band);
//   * clipping only removes points, so two maximal runs never merge and
//     the clipped runs are exactly the window's maximal runs;
//   * the chain DP over maximal runs equals the DP over their points (an
//     exchange argument: some optimal chain uses maximal runs in full).
// The grid loops try many ends per start, so the DP runs once per (start,
// cap) *row*: the band's runs clipped at sp only, solved to the end of s̄.
// A run's DP value depends only on the runs that may precede it, and those
// end before it begins, so it is the same in every window [sp, ep) that
// holds the run's first point.  A window's distance is then the empty
// chain max(B, ep - sp) or, over the row's runs that start before ep,
//   dp + max(B - p_end, ep - q_end)
// with the run cut at ep: the one run crossing ep can only end a chain,
// and pays dp + max(B - p_cut, 0).  That takes O(runs) per window, and the
// charges are summed as the per-window clip and DP would charge them.
#pragma once

#include <cstdint>
#include <vector>

#include "seq/combine.hpp"
#include "seq/types.hpp"
#include "seq/ulam.hpp"
#include "common/rng.hpp"

namespace mpcsd::ulam_mpc {

/// Round-1 output tuples reuse the shared combine-DP tuple type.
using Tuple = seq::Tuple;

struct CandidateParams {
  double eps_prime = 0.25;       ///< eps' = eps/2
  double theta_constant = 8.0;   ///< paper uses 8; benches may lower it
  std::int64_t n = 0;            ///< |s| (drives the ln n sampling rate)
  std::int64_t n_bar = 0;        ///< |s̄|
};

struct CandidateStats {
  std::size_t candidates_evaluated = 0;
  std::size_t candidates_pruned = 0;   ///< bounded DP exceeded its cap
  std::size_t anchors_sampled = 0;     ///< |I| before diagonal dedup
  std::size_t anchors_distinct = 0;    ///< distinct (gamma, kappa) anchors
  std::uint64_t work = 0;
};

/// Per-block evaluation context: the block's match points against s̄ in
/// p-order, their q values in q-order, the block's maximal diagonal runs,
/// the current (start, cap) row, and a dedup set so that every candidate
/// window is evaluated exactly once across all guess levels.
class BlockEvaluator {
 public:
  /// `positions` as for `build_block_candidates`; `stats` may be null.
  BlockEvaluator(std::int64_t block_begin, const std::vector<std::int64_t>& positions,
                 std::int64_t n_bar, CandidateStats* stats);

  /// The block's match points, sorted by p.
  [[nodiscard]] const std::vector<seq::MatchPoint>& points() const noexcept {
    return pts_;
  }
  [[nodiscard]] std::uint64_t work() const noexcept { return work_; }

  /// Evaluates candidate window [sp, ep) (clamped to s̄) with the exact
  /// Ulam engine capped at `cap`; appends a tuple when the distance is
  /// <= cap.  A window already evaluated is skipped.  Charges the q-slice
  /// count + 1, then (unless |B - (ep - sp)| > cap prunes outright) the
  /// band population plus `seq::max_combine_work` of the clipped runs.
  void evaluate(std::int64_t sp, std::int64_t ep, std::int64_t cap,
                std::vector<Tuple>& out);

 private:
  /// The windows already evaluated, as keys below 2^64 - 1 (which marks an
  /// empty slot): open addressing with linear probing in a power-of-two
  /// table kept at most half full.
  class WindowSet {
   public:
    /// Adds `key`; false when it is already present.
    bool insert(std::uint64_t key);

   private:
    void grow();

    std::vector<std::uint64_t> slots_;
    std::size_t size_ = 0;
    unsigned shift_ = 64;  // slot = (key * golden ratio) >> shift_
  };

  /// Makes (sp, cap) the current row: the band's runs clipped at sp and
  /// their chain-DP values in `combine_`.
  void build_row(std::int64_t sp, std::int64_t cap);

  std::int64_t block_begin_;
  std::int64_t block_len_;
  std::int64_t n_bar_;
  CandidateStats* stats_;
  std::vector<seq::MatchPoint> pts_;  // sorted by p
  std::vector<std::int64_t> qs_;      // pts_' q values, sorted
  /// Maximal diagonal runs as zero-distance tuples [p, p+len) x [q, q+len),
  /// sorted by p.
  std::vector<Tuple> runs_;
  /// The current row's runs in row-local q (q - sp), sorted by p; `combine_`
  /// holds their DP values.
  std::vector<Tuple> row_;
  std::int64_t row_sp_ = -1;
  std::int64_t row_cap_ = -1;
  seq::MaxCombineSolver combine_;
  WindowSet seen_;
  std::uint64_t work_ = 0;
};

/// Runs Algorithm 1 for one block.  `block_begin` is the block's offset in
/// s; `positions[p]` is the position of block character p in s̄, or -1 if
/// the character does not occur in s̄.  Returns the candidate tuples.
std::vector<Tuple> build_block_candidates(std::int64_t block_begin,
                                          const std::vector<std::int64_t>& positions,
                                          const CandidateParams& params,
                                          Pcg32& rng, CandidateStats* stats = nullptr);

}  // namespace mpcsd::ulam_mpc
