// Lemma 8: the four-round large-distance pipeline (n^delta > n^{1-x/5}).
//
// Round 1 (Algorithm 5):  sample representative nodes of G_tau at rate
//   ~2 ln n / n^alpha and compute representative-to-all bounded edit
//   distances; emit RepTuples (one per (node, rep) pair within range, which
//   encodes N_tau/N_2tau membership for every threshold at once).
// Round 2 (Algorithm 6):  two machine families in one round —
//   * pairing machines join "b" and "cs" RepTuples on the shared
//     representative: every dense block obtains tuples to all candidate
//     substrings at cost d(block,z) + d(z,u) <= 3*tau (Lemma 7);
//   * sampled low-degree machines (selected by the common-seed coin of
//     Algorithm 6 line 9) compute exact distances to their own candidates,
//     emit those tuples, and issue extension requests to every sibling
//     block inside the same larger block of size n^{1-y'} (Fig. 7).
// Round 3 (Algorithm 7):  evaluate the extension requests exactly.
// Round 4:  the combine DP over all tuples (Algorithm 4 with sum gaps).
#pragma once

#include <cstdint>

#include "edit_mpc/graph_tau.hpp"
#include "edit_mpc/small_distance.hpp"
#include "mpc/cluster.hpp"
#include "seq/types.hpp"

namespace mpcsd::edit_mpc {

/// Model parameters of one guess; the execution knobs come from
/// mpc::ExecOptions.
struct LargeDistanceParams : mpc::ExecOptions {
  double eps_prime = 0.05;          ///< eps' = eps/22
  double x = 0.25;                  ///< memory exponent
  std::int64_t delta_guess = 0;     ///< the distance guess n^delta
  double alpha_scale = 3.0 / 5.0;   ///< alpha = alpha_scale * x (Theorem 9)
  double y_scale = 6.0 / 5.0;       ///< y = y_scale * x
  double y_prime_scale = 4.0 / 5.0; ///< y' = y_prime_scale * x
  double rep_constant = 2.0;        ///< representative rate: c * ln n / n^alpha
  double sample_constant = 3.0;     ///< low-degree rate constant (paper: 3/eps'^2 * log^2 n)
  std::int64_t distance_cap_factor = 4;  ///< bounded-distance cap = factor * guess
  std::size_t max_extend_per_block = 0;  ///< 0 = floor(n^alpha) (the paper's bound)
  std::size_t max_representatives = 48;  ///< hard cap on |R| (0 = uncapped)
  std::uint64_t seed = 13;
  std::uint64_t memory_cap_bytes = UINT64_MAX;
};

struct LargeDistanceResult {
  std::int64_t distance = 0;
  std::size_t representative_count = 0;
  std::size_t sampled_blocks = 0;
  std::size_t extension_requests = 0;
  mpc::ExecutionTrace trace;
};

/// Runs the large-distance pipeline for one guess.  The result is always
/// the cost of a realizable transformation (>= ed(s, t)); when the guess is
/// >= ed(s, t) it is <= (3+eps)·ed(s, t) with high probability.
LargeDistanceResult run_large_distance(SymView s, SymView t,
                                       const LargeDistanceParams& params);

}  // namespace mpcsd::edit_mpc
