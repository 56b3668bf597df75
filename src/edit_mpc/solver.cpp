#include "edit_mpc/solver.hpp"

#include <algorithm>
#include <cmath>

#include "common/contracts.hpp"
#include "common/grid.hpp"
#include "common/rng.hpp"

namespace mpcsd::edit_mpc {

std::int64_t small_distance_limit(std::int64_t n, double x) {
  return ipow(n, 1.0 - x / 5.0);
}

double edit_eps_prime(const EditMpcParams& params) {
  // The paper's eps' = eps/22 is proof bookkeeping; as an implementation
  // constant it multiplies candidate counts by poly(22/eps), so the solver
  // floors it (the floor only affects the hidden constants, not the
  // guarantee shape, and benches verify the achieved ratios directly).
  return std::max(params.epsilon / 22.0, params.eps_prime_floor);
}

std::int64_t accept_threshold(std::int64_t guess, double epsilon) {
  return static_cast<std::int64_t>(
             std::ceil((3.0 + epsilon) * static_cast<double>(guess))) +
         2;
}

std::uint64_t edit_memory_cap_bytes(std::int64_t n, const EditMpcParams& params) {
  const std::int64_t block = std::max<std::int64_t>(1, ipow_ceil(n, 1.0 - params.x));
  const double eps_prime = edit_eps_prime(params);
  const double logn = std::log2(static_cast<double>(std::max<std::int64_t>(n, 4)));
  // A machine's feed is a block plus an s̄ chunk of <= B(1 + 1/eps')
  // symbols (small pipeline) or a batch of node strings (large pipeline);
  // the combine machine additionally holds all tuples, whose multiplicity
  // carries a (1/eps')^2 · log factor (starts grid x geometric ends).  All
  // of it is Õ_eps(n^{1-x}).
  const double cap = params.memory_slack * static_cast<double>(sizeof(Symbol)) *
                     (static_cast<double>(block) + 64.0) * (logn + 2.0) *
                     (2.0 + 1.0 / eps_prime) * (2.0 + 1.0 / eps_prime);
  return static_cast<std::uint64_t>(cap);
}

EditMpcResult edit_distance_mpc(SymView s, SymView t, const EditMpcParams& params) {
  MPCSD_EXPECTS(params.x > 0.0 && params.x < 1.0);
  MPCSD_EXPECTS(params.epsilon > 0.0);

  EditMpcResult result;
  const auto n = static_cast<std::int64_t>(s.size());
  const auto n_bar = static_cast<std::int64_t>(t.size());
  result.memory_cap_bytes = edit_memory_cap_bytes(std::max<std::int64_t>(n, 1), params);

  // The ed == 0 case is detected separately (one linear scan).
  if (n == n_bar && std::equal(s.begin(), s.end(), t.begin())) {
    result.distance = 0;
    return result;
  }
  if (n == 0 || n_bar == 0) {
    result.distance = std::max(n, n_bar);
    return result;
  }

  const double eps_prime = edit_eps_prime(params);
  const std::int64_t small_limit = small_distance_limit(n, params.x);
  const auto guesses = geometric_grid(std::max(n, n_bar), params.epsilon);

  obs::Span solve_span(params.recorder, "edit:solve", "solver");
  solve_span.arg("n", static_cast<double>(n));

  std::int64_t best = n + n_bar;  // trivial delete-all/insert-all bound
  std::uint64_t guess_seed = params.seed;
  for (const std::int64_t guess : guesses) {
    if (guess == 0) continue;  // ed == 0 already handled
    ++result.guesses_run;
    guess_seed = splitmix64(guess_seed + static_cast<std::uint64_t>(guess));

    obs::Span guess_span(params.recorder, "edit:guess", "solver");
    guess_span.arg("guess", static_cast<double>(guess));

    GuessOutcome outcome;
    outcome.guess = guess;
    mpc::ExecutionTrace guess_trace;
    if (guess <= small_limit) {
      SmallDistanceParams sp{params};
      sp.eps_prime = eps_prime;
      sp.x = params.x;
      sp.delta_guess = guess;
      sp.unit = params.unit;
      sp.approx = params.approx;
      sp.seed = guess_seed;
      sp.memory_cap_bytes = result.memory_cap_bytes;
      auto pipeline = run_small_distance(s, t, sp);
      outcome.distance = pipeline.distance;
      guess_trace = std::move(pipeline.trace);
    } else {
      LargeDistanceParams lp{params};
      lp.eps_prime = eps_prime;
      lp.x = params.x;
      lp.delta_guess = guess;
      lp.rep_constant = params.rep_constant;
      lp.sample_constant = params.sample_constant;
      lp.distance_cap_factor = params.distance_cap_factor;
      lp.max_extend_per_block = params.max_extend_per_block;
      lp.seed = guess_seed;
      lp.memory_cap_bytes = result.memory_cap_bytes;
      auto pipeline = run_large_distance(s, t, lp);
      outcome.distance = pipeline.distance;
      outcome.large_pipeline = true;
      guess_trace = std::move(pipeline.trace);
    }
    outcome.machines = guess_trace.max_machines();
    result.per_guess.push_back(outcome);
    result.trace.merge_parallel(guess_trace);

    best = std::min(best, outcome.distance);
    // Accept once the answer certifies itself against the guess: for a
    // guess >= ed(s, t) the pipeline output is <= (3+eps)·ed <= (3+eps)·
    // guess, so this fires no later than that guess.
    if (outcome.distance <= accept_threshold(guess, params.epsilon)) {
      if (result.accepted_guess == 0) result.accepted_guess = guess;
      if (params.guess_mode == GuessMode::kEarlyExit) break;
    }
  }

  result.distance = best;
  MPCSD_ENSURES(result.distance >= 0);
  MPCSD_ENSURES(result.trace.round_count() <= 4);
  return result;
}

}  // namespace mpcsd::edit_mpc
