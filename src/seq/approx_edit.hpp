// Constant-factor approximate edit distance in linear memory — the
// per-machine distance unit the paper's small-distance pipeline borrows
// from Chakraborty et al. [12].
//
// Scheme (a CGKKS-style window cover; see DESIGN.md for the substitution
// rationale):
//
//   Guess loop.  For t = 1, (1+eps), (1+eps)^2, ... up to max(|a|,|b|):
//     * t <= window size:  run the exact Ukkonen band of width t; if it
//       certifies a distance <= t we are done (exact answer).
//     * t >  window size:  window cover.  Partition a into windows of size
//       w ~ |a|^{5/6}.  Candidate windows of b start on a grid of gap
//       g = max(1, eps*t/d) within offset t of each window's diagonal (an
//       opt of cost <= t keeps images within offset t) with lengths
//       w +- g*(1+eps)^k.  Pair distances are resolved threshold by
//       threshold (tau ascending) through a memoized bounded-distance
//       oracle that only re-attempts a pair once the cap has doubled past
//       its known lower bound; above `rep_min_nodes` nodes, sampled
//       representatives certify dense pairs through the triangle
//       inequality (d(i,z)+d(z,j) <= 3*tau — the same Lemma 7 trick the
//       MPC algorithm uses) so sparse exact work stays subquadratic.  A
//       shortest-path combine DP runs after every threshold and the guess
//       is accepted as soon as the combined bound certifies itself
//       (<= 3(1+2eps)t).
//
// Every pair estimate upper-bounds the true pair distance, so the returned
// value always upper-bounds ed(a, b); the cover argument bounds it by
// 3(1+O(eps))·ed(a, b) on covered workloads (verified empirically by tests
// and by bench/approx_quality).  Work is metered in DP cells.
#pragma once

#include <cstdint>
#include <optional>

#include "seq/types.hpp"

namespace mpcsd::seq {

struct ApproxEditParams {
  double epsilon = 0.25;            ///< grid / threshold resolution
  double window_exponent = 5.0 / 6; ///< w = ceil(|a|^window_exponent)
  /// Inputs with |a|,|b| below this run plain exact DP — the subquadratic
  /// machinery only pays off at scale (any practical implementation
  /// dispatches the same way).
  std::int64_t exact_cutoff = 512;
  /// Stop the guess loop once t exceeds this (0 = run to max(|a|,|b|)).
  /// Callers that censor distances above a cap set it to ~the cap: if no
  /// guess up to the limit certifies, the distance provably exceeds it.
  std::int64_t guess_limit = 0;
  std::size_t rep_min_nodes = 1500; ///< enable representative certification
                                    ///< above this node count
  double rep_log_budget = 3.0;      ///< |R| ~ rep_log_budget * log2(N)
  std::uint64_t seed = 17;          ///< representative-sampling seed
};

struct ApproxEditResult {
  std::int64_t distance = 0;  ///< upper bound on ed(a, b)
  std::uint64_t work = 0;     ///< DP cells + bookkeeping operations
  std::int64_t accepted_guess = 0;  ///< the guess t that produced the answer
  bool exact = false;         ///< true when the answer is provably exact
};

/// 3+O(eps)-approximate edit distance; see file comment.
ApproxEditResult approx_edit_distance(SymView a, SymView b,
                                      const ApproxEditParams& params = {});

/// The band cap of the censored exact branch: when both lengths are
/// non-zero and at most `exact_cutoff` and `guess_limit > 0`,
/// `approx_edit_distance` answers with `edit_distance_banded_fast` at
/// this cap — the distance when it is within the cap, else the trivial
/// bound max(na, nb) — and charges exactly that call's work.  nullopt
/// when another branch runs.
std::optional<std::int64_t> censored_exact_cap(std::int64_t na, std::int64_t nb,
                                               const ApproxEditParams& params);

}  // namespace mpcsd::seq
