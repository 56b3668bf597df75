#include "edit_mpc/hss_baseline.hpp"

#include <algorithm>
#include <cmath>

#include "common/contracts.hpp"
#include "common/grid.hpp"
#include "common/rng.hpp"
#include "edit_mpc/solver.hpp"

namespace mpcsd::edit_mpc {

HssBaselineResult hss_edit_distance_mpc(SymView s, SymView t,
                                        const HssBaselineParams& params) {
  MPCSD_EXPECTS(params.x > 0.0 && params.x < 1.0);
  MPCSD_EXPECTS(params.epsilon > 0.0);

  HssBaselineResult result;
  if (const auto d = trivial_distance(s, t)) {
    result.distance = *d;
    return result;
  }
  const auto n = static_cast<std::int64_t>(s.size());
  const auto n_bar = static_cast<std::int64_t>(t.size());

  EditMpcParams cap_params;
  cap_params.x = params.x;
  cap_params.epsilon = params.epsilon;
  cap_params.memory_slack = params.memory_slack;
  const std::uint64_t cap = edit_memory_cap_bytes(n, cap_params);

  const double eps_prime = params.epsilon / 4.0;
  obs::Span solve_span(params.recorder, "hss:solve", "solver");
  solve_span.arg("n", static_cast<double>(n));
  std::int64_t best = n + n_bar;
  std::uint64_t guess_seed = params.seed;
  for (const std::int64_t guess : geometric_grid(std::max(n, n_bar), params.epsilon)) {
    if (guess == 0) continue;
    ++result.guesses_run;
    guess_seed = splitmix64(guess_seed + static_cast<std::uint64_t>(guess));

    SmallDistanceParams sp{params};
    sp.eps_prime = eps_prime;
    sp.x = params.x;
    sp.delta_guess = guess;
    sp.unit = DistanceUnit::kExactBanded;
    sp.batch_starts = false;  // [20]: one machine per block/candidate pair
    sp.seed = guess_seed;
    sp.memory_cap_bytes = cap;
    auto pipeline = run_small_distance(s, t, sp);
    result.trace.merge_parallel(pipeline.trace);

    best = std::min(best, pipeline.distance);
    const auto accept = static_cast<std::int64_t>(
        std::ceil((1.0 + params.epsilon) * static_cast<double>(guess))) + 2;
    if (pipeline.distance <= accept) {
      if (result.accepted_guess == 0) result.accepted_guess = guess;
      if (params.early_exit) break;
    }
  }

  result.distance = best;
  MPCSD_ENSURES(result.trace.round_count() == 2);
  return result;
}

}  // namespace mpcsd::edit_mpc
