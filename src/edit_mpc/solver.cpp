#include "edit_mpc/solver.hpp"

#include <algorithm>
#include <cmath>

#include "common/contracts.hpp"
#include "common/grid.hpp"
#include "common/rng.hpp"
#include "mpc/plan.hpp"
#include "obs/recorder.hpp"

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

std::optional<std::int64_t> trivial_distance(SymView s, SymView t) {
  if (s.size() == t.size() && std::equal(s.begin(), s.end(), t.begin())) return 0;
  if (s.empty() || t.empty()) {
    return static_cast<std::int64_t>(std::max(s.size(), t.size()));
  }
  return std::nullopt;
}

namespace {

/// One live query's guess ladder: the grid above 0, the chained per-rung
/// seeds, and the next rung to run.
struct Ladder {
  std::vector<std::int64_t> guesses;
  std::vector<std::uint64_t> seeds;
  std::int64_t small_limit = 0;
  std::size_t next = 0;
};

/// One rung of a pass: which query, which rung.
struct PassRung {
  std::size_t query = 0;
  std::size_t rung = 0;
};

}  // namespace

LadderResult run_guess_ladder(const std::vector<LadderQuery>& queries,
                              const EditMpcParams& params) {
  MPCSD_EXPECTS(params.x > 0.0 && params.x < 1.0);
  MPCSD_EXPECTS(params.epsilon > 0.0);

  LadderResult run;
  run.queries.resize(queries.size());
  const double eps_prime = edit_eps_prime(params);
  const bool early_exit = params.guess_mode == GuessMode::kEarlyExit;

  std::vector<Ladder> ladders(queries.size());
  std::vector<std::size_t> unresolved;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const LadderQuery& query = queries[i];
    EditMpcResult& result = run.queries[i];
    if (const auto d = trivial_distance(query.s, query.t)) {
      result.distance = *d;
      continue;
    }
    const auto n = static_cast<std::int64_t>(query.s.size());
    const auto n_bar = static_cast<std::int64_t>(query.t.size());
    result.memory_cap_bytes = edit_memory_cap_bytes(n, params);
    result.distance = n + n_bar;  // trivial delete-all/insert-all bound

    Ladder& ladder = ladders[i];
    ladder.small_limit = small_distance_limit(n, params.x);
    std::uint64_t seed = params.seed + query.id * 0x9e3779b97f4a7c15ULL;
    for (const std::int64_t guess : geometric_grid(std::max(n, n_bar), params.epsilon)) {
      if (guess == 0) continue;
      seed = splitmix64(seed + static_cast<std::uint64_t>(guess));
      ladder.guesses.push_back(guess);
      ladder.seeds.push_back(seed);
    }
    // answer >= ed >= lower_bound, so a rung whose accept threshold is
    // below the bound can never certify.
    while (ladder.next + 1 < ladder.guesses.size() &&
           accept_threshold(ladder.guesses[ladder.next], params.epsilon) <
               query.lower_bound) {
      ++ladder.next;
    }
    unresolved.push_back(i);
  }
  if (unresolved.empty()) return run;

  // Per-machine limits carry the caps; the cluster-wide one stays unlimited.
  mpc::ClusterConfig config{params};
  config.seed = params.seed;
  mpc::Driver driver(small_plan(), config);
  obs::Recorder* rec = params.recorder;
  const bool tracing = rec != nullptr && rec->enabled();

  while (!unresolved.empty()) {
    ++run.passes;
    const std::uint64_t pass_ts = tracing ? rec->now_us() : 0;
    obs::Span pass_span(rec, "edit:pass", "solver");

    // The pass's rungs: the next one of every unresolved query, or all of
    // them under kAll.  Small rungs become cells of one shared round pair.
    std::vector<PassRung> rungs;
    std::vector<SmallCell> cells;
    for (const std::size_t q : unresolved) {
      Ladder& ladder = ladders[q];
      const std::size_t end = early_exit ? ladder.next + 1 : ladder.guesses.size();
      for (; ladder.next < end; ++ladder.next) {
        rungs.push_back({q, ladder.next});
        const std::int64_t guess = ladder.guesses[ladder.next];
        if (guess > ladder.small_limit) continue;
        SmallDistanceParams sp;
        sp.eps_prime = eps_prime;
        sp.x = params.x;
        sp.delta_guess = guess;
        sp.unit = params.unit;
        sp.approx = params.approx;
        sp.seed = ladder.seeds[ladder.next];
        sp.memory_cap_bytes = run.queries[q].memory_cap_bytes;
        cells.push_back(SmallCell{queries[q].s, queries[q].t, sp});
      }
    }
    pass_span.arg("rungs", static_cast<double>(rungs.size()));

    mpc::ExecutionTrace pass_trace;
    std::vector<PipelineResult> small;
    if (!cells.empty()) {
      small = run_small_cells(driver, cells);
      const auto& rounds = driver.trace().rounds();
      pass_trace.add_round(rounds[rounds.size() - 2]);
      pass_trace.add_round(rounds.back());
    }

    std::size_t next_cell = 0;
    for (const PassRung& pr : rungs) {
      const LadderQuery& query = queries[pr.query];
      const Ladder& ladder = ladders[pr.query];
      EditMpcResult& result = run.queries[pr.query];
      GuessOutcome g;
      g.guess = ladder.guesses[pr.rung];
      if (g.guess <= ladder.small_limit) {
        PipelineResult& cell = small[next_cell++];
        g.distance = cell.distance;
        g.trace = std::move(cell.trace);
      } else {
        LargeDistanceParams lp{params};
        lp.eps_prime = eps_prime;
        lp.x = params.x;
        lp.delta_guess = g.guess;
        lp.rep_constant = params.rep_constant;
        lp.sample_constant = params.sample_constant;
        lp.distance_cap_factor = params.distance_cap_factor;
        lp.max_extend_per_block = params.max_extend_per_block;
        lp.seed = ladder.seeds[pr.rung];
        lp.memory_cap_bytes = result.memory_cap_bytes;
        auto pipeline = run_large_distance(query.s, query.t, lp);
        g.distance = pipeline.distance;
        g.large_pipeline = true;
        g.trace = std::move(pipeline.trace);
        pass_trace.merge_parallel(g.trace);
      }
      if (tracing) {
        // The interval is shared with every rung of the pass; the args are
        // the rung's own.
        std::size_t machines = 0;
        for (const mpc::RoundReport& r : g.trace.rounds()) machines += r.machines;
        rec->span_since("edit:rung", "solver", pass_ts,
                        {{"query", static_cast<double>(query.id)},
                         {"guess", static_cast<double>(g.guess)},
                         {"machines", static_cast<double>(machines)},
                         {"work", static_cast<double>(g.trace.total_work())},
                         {"comm_bytes", static_cast<double>(g.trace.total_comm_bytes())}},
                        query.id + 1);
      }

      result.distance = std::min(result.distance, g.distance);
      // The answer certifies itself against the guess: for a guess >=
      // ed(s, t) the pipeline output is <= (3+eps)·ed <= (3+eps)·guess, so
      // this fires no later than that guess.
      if (result.accepted_guess == 0 &&
          g.distance <= accept_threshold(g.guess, params.epsilon)) {
        result.accepted_guess = g.guess;
      }
      ++result.guesses_run;
      result.trace.merge_parallel(g.trace);
      result.per_guess.push_back(std::move(g));
    }
    run.trace.append_sequential(pass_trace);

    std::vector<std::size_t> survivors;
    for (const std::size_t q : unresolved) {
      const bool accepted = early_exit && run.queries[q].accepted_guess != 0;
      if (!accepted && ladders[q].next < ladders[q].guesses.size()) {
        survivors.push_back(q);
      }
    }
    unresolved = std::move(survivors);
  }
  driver.finish();
  return run;
}

EditMpcResult edit_distance_mpc(SymView s, SymView t, const EditMpcParams& params) {
  obs::Span solve_span(params.recorder, "edit:solve", "solver");
  solve_span.arg("n", static_cast<double>(s.size()));
  EditMpcResult result =
      std::move(run_guess_ladder({LadderQuery{s, t}}, params).queries.front());
  result.memory_cap_bytes = edit_memory_cap_bytes(
      std::max<std::int64_t>(static_cast<std::int64_t>(s.size()), 1), params);
  MPCSD_ENSURES(result.distance >= 0);
  MPCSD_ENSURES(result.trace.round_count() <= 4);
  return result;
}

}  // namespace mpcsd::edit_mpc
