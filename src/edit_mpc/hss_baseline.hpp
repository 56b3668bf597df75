// The Hajiaghayi–Seddighin–Sun [20] baseline: 1+eps approximate MPC edit
// distance in 2 rounds with Õ_eps(n^{2x}) machines.
//
// Structurally it is the small-distance pipeline run for *every* guess with
//   * the exact distance unit (band doubling) instead of the 3+eps' unit,
//   * one machine per candidate start (no start batching — the batching is
//     exactly this paper's improvement over [20]).
// Table 1's machine comparison (ours n^{(9/5)x} vs [20] n^{2x}) is measured
// against this implementation.
#pragma once

#include <cstdint>

#include "edit_mpc/small_distance.hpp"
#include "mpc/cluster.hpp"
#include "mpc/stats.hpp"
#include "seq/types.hpp"

namespace mpcsd::edit_mpc {

/// Model parameters; the execution knobs come from mpc::ExecOptions.
struct HssBaselineParams : mpc::ExecOptions {
  double x = 0.25;
  double epsilon = 1.0;          ///< eps' = eps/4 internally (1+eps overall)
  std::uint64_t seed = 23;
  double memory_slack = 8.0;
  bool early_exit = true;        ///< stop at the first self-certifying guess
};

struct HssBaselineResult {
  std::int64_t distance = 0;
  /// First guess whose answer is within its 1+eps accept bound
  /// (ceil((1+eps)·guess) + 2); 0 when the strings were equal or no guess
  /// certified.
  std::int64_t accepted_guess = 0;
  std::size_t guesses_run = 0;
  mpc::ExecutionTrace trace;     ///< parallel merge over executed guesses
};

/// Approximates ed(s, t) within 1+eps in 2 rounds, Õ_eps(n^{2x}) machines.
HssBaselineResult hss_edit_distance_mpc(SymView s, SymView t,
                                        const HssBaselineParams& params = {});

}  // namespace mpcsd::edit_mpc
