#include "ulam_mpc/solver.hpp"

#include <algorithm>
#include <cmath>
#include <unordered_map>
#include <vector>

#include "common/contracts.hpp"
#include "common/grid.hpp"
#include "common/thread_pool.hpp"
#include "mpc/combine_round.hpp"
#include "mpc/plan.hpp"
#include "mpc/primitives.hpp"
#include "obs/recorder.hpp"
#include "seq/lis.hpp"

namespace mpcsd::ulam_mpc {

namespace {

/// Round-1 machine input: one block of one query with the t-positions of
/// its symbols (the "character position map" feed of Algorithm 1).
struct UlamBatchTask {
  std::uint32_t query = 0;
  std::int64_t begin = 0;
  std::vector<std::int64_t> positions;

  static constexpr auto fields() {
    return std::make_tuple(&UlamBatchTask::query, &UlamBatchTask::begin,
                           &UlamBatchTask::positions);
  }
};

/// Round 1: Algorithm 1 on one block of one query; params hold each
/// query's candidate parameters, by query index.  The tuple batch goes to
/// the query's mailbox (the wire layout of `seq::write_tuples`).
void candidates_body(mpc::StageContext<UlamBatchTask>& ctx,
                     const std::vector<CandidateParams>& queries) {
  const CandidateParams& cp = queries[ctx.in().query];
  CandidateStats st;
  const auto tuples = build_block_candidates(ctx.in().begin, ctx.in().positions,
                                             cp, ctx.rng(), &st);
  ctx.charge_work(st.work);
  ctx.charge_scratch(ctx.in().positions.size() * 32);
  ctx.send(mpc::Channel<std::vector<seq::Tuple>>(ctx.in().query), tuples);
}

const mpc::Stage<UlamBatchTask, std::vector<CandidateParams>> kCandidatesStage{
    "batch:ulam:candidates", &candidates_body};
/// Round 2 (Algorithm 2): one combine machine per query; the answer rides
/// the query's mailbox.
const mpc::Stage<mpc::TupleInbox, mpc::CombineParams> kCombineStage{
    "batch:ulam:combine", &mpc::combine_body};

mpc::Plan ulam_plan() {
  return mpc::Plan{
      "batch:ulam",
      {
          {"batch:ulam:candidates", "UlamBatchTask (sharded input)",
           "tuples@query"},
          {"batch:ulam:combine", "Inbox<tuples>@query", "answer@query"},
      }};
}

void expect_repeat_free(const UlamQuery& query) {
  MPCSD_EXPECTS(seq::is_repeat_free(query.s));
  MPCSD_EXPECTS(seq::is_repeat_free(query.t));
}

/// Driver-side character-position map: the t-position of every symbol of
/// s, -1 when absent (the paper's "input is already distributed").
std::vector<std::int64_t> positions_in_t(SymView s, SymView t) {
  std::unordered_map<Symbol, std::int64_t> pos_in_t;
  pos_in_t.reserve(t.size() * 2);
  for (std::size_t j = 0; j < t.size(); ++j) {
    pos_in_t.emplace(t[j], static_cast<std::int64_t>(j));
  }
  std::vector<std::int64_t> positions;
  positions.reserve(s.size());
  for (const Symbol v : s) {
    const auto it = pos_in_t.find(v);
    positions.push_back(it == pos_in_t.end() ? -1 : it->second);
  }
  return positions;
}

}  // namespace

std::uint64_t ulam_memory_cap_bytes(std::int64_t n, const UlamMpcParams& params) {
  const std::int64_t block = std::max<std::int64_t>(1, ipow_ceil(n, 1.0 - params.x));
  const double eps_prime = params.epsilon / 2.0;
  const double logn = std::log2(static_cast<double>(std::max<std::int64_t>(n, 4)));
  // Input feed: 8 bytes per block position; output: tuples of ~48 bytes
  // with poly(1/eps') multiplicity — the grids contribute (1/eps')^2 per
  // level and ~1/eps' levels matter per block (Section 4.1's Õ(1/eps'^5)
  // bound), so the cap carries a cubic 1/eps' factor.  Still
  // Õ_eps(n^{1-x}).
  const double inv = 1.0 + 1.0 / eps_prime;
  const double cap = params.memory_slack * 8.0 *
                     (static_cast<double>(block) + 64.0) * (logn + 2.0) *
                     inv * inv * inv;
  return static_cast<std::uint64_t>(cap);
}

UlamPipelineResult run_ulam_pipeline(const std::vector<UlamQuery>& queries,
                                     const UlamMpcParams& params) {
  MPCSD_EXPECTS(params.x > 0.0 && params.x < 1.0);
  MPCSD_EXPECTS(params.epsilon > 0.0);

  UlamPipelineResult run;
  run.queries.resize(queries.size());
  std::vector<std::uint32_t> live;
  std::uint64_t max_cap = 0;
  for (std::uint32_t q = 0; q < queries.size(); ++q) {
    UlamMpcResult& result = run.queries[q];
    const auto n = static_cast<std::int64_t>(queries[q].s.size());
    if (n == 0) {
      expect_repeat_free(queries[q]);
      result.distance = static_cast<std::int64_t>(queries[q].t.size());
      continue;
    }
    result.block_size = std::max<std::int64_t>(1, ipow_ceil(n, 1.0 - params.x));
    result.block_count = static_cast<std::size_t>(ceil_div(n, result.block_size));
    result.memory_cap_bytes = ulam_memory_cap_bytes(n, params);
    max_cap = std::max(max_cap, result.memory_cap_bytes);
    live.push_back(q);
  }
  if (live.empty()) return run;

  // Per-machine limits carry each query's cap in the plan stages; the
  // cluster-wide one bounds the join rounds, which carry none.
  mpc::ClusterConfig config{params};
  config.memory_limit_bytes = max_cap;
  config.seed = params.seed;
  mpc::Driver driver(ulam_plan(), config);
  obs::Recorder* rec = params.recorder;
  const bool tracing = rec != nullptr && rec->enabled();
  const std::uint64_t pass_ts = tracing ? rec->now_us() : 0;
  obs::Span pass_span(rec, "batch:ulam:pass", "batch");
  pass_span.arg("queries", static_cast<double>(queries.size()));

  // Character-position maps: an in-model MPC hash join per query (two
  // rounds each on the shared cluster, one query after another, before the
  // plan stages), or the equivalent driver-side routing below.
  std::vector<std::vector<std::int64_t>> joined(queries.size());
  if (params.in_model_position_map) {
    for (const std::uint32_t q : live) {
      expect_repeat_free(queries[q]);
      joined[q] = mpc::position_map_round(driver.cluster(), queries[q].s,
                                          queries[q].t, run.queries[q].block_count);
      const auto& rounds = driver.trace().rounds();
      run.queries[q].trace.add_round(rounds[rounds.size() - 2]);
      run.queries[q].trace.add_round(rounds.back());
    }
  }

  // Per-query block tasks are built on the round worker pool: queries are
  // independent, and the serial flatten below keeps the machine order
  // deterministic.
  std::vector<std::vector<UlamBatchTask>> builds(queries.size());
  driver.cluster().pool().parallel_for(
      live.size(),
      [&](std::size_t i) {
        const std::uint32_t q = live[i];
        std::vector<std::int64_t> positions;
        if (params.in_model_position_map) {
          positions = std::move(joined[q]);
        } else {
          expect_repeat_free(queries[q]);
          positions = positions_in_t(queries[q].s, queries[q].t);
        }
        const auto n = static_cast<std::int64_t>(positions.size());
        const std::int64_t block = run.queries[q].block_size;
        for (std::int64_t begin = 0; begin < n; begin += block) {
          const std::int64_t end = std::min(n, begin + block);
          builds[q].push_back(UlamBatchTask{
              q, begin,
              std::vector<std::int64_t>(positions.begin() + begin,
                                        positions.begin() + end)});
        }
      },
      /*grain=*/1);

  std::vector<UlamBatchTask> tasks;
  std::vector<std::uint64_t> task_limits;
  std::vector<std::uint32_t> task_owner;
  std::vector<CandidateParams> query_params(queries.size());
  std::vector<std::uint64_t> caps(queries.size());
  for (const std::uint32_t q : live) {
    caps[q] = run.queries[q].memory_cap_bytes;
    for (UlamBatchTask& task : builds[q]) {
      tasks.push_back(std::move(task));
      task_limits.push_back(caps[q]);
      task_owner.push_back(q);
    }
    query_params[q].eps_prime = params.epsilon / 2.0;
    query_params[q].theta_constant = params.theta_constant;
    query_params[q].n = static_cast<std::int64_t>(queries[q].s.size());
    query_params[q].n_bar = static_cast<std::int64_t>(queries[q].t.size());
  }

  // ---- Round 1: Algorithm 1 on every block of every query. ----
  std::vector<mpc::MachineReport> reports1;
  mpc::RoundOptions options1;
  options1.machine_memory_limits = &task_limits;
  options1.machine_reports = &reports1;
  const auto mail = driver.run(kCandidatesStage, driver.shard_parallel(tasks),
                               query_params, options1);

  // ---- Round 2: Algorithm 2, one machine per query. ----
  // Each combine machine's inbox is a view of its query's routed round-1
  // mail; its metered input is the full mailbox byte count.
  std::vector<ByteChain> combine_inputs;
  std::vector<std::uint64_t> combine_limits;
  mpc::CombineParams combine_params;
  combine_params.gap = params.combine_gap;
  for (const std::uint32_t q : live) {
    combine_inputs.push_back(mpc::gather_view(mail, q));
    combine_limits.push_back(caps[q]);
    combine_params.targets.push_back(
        {q, query_params[q].n, query_params[q].n_bar});
  }
  std::vector<mpc::MachineReport> reports2;
  mpc::RoundOptions options2;
  options2.machine_memory_limits = &combine_limits;
  options2.machine_reports = &reports2;
  const auto mail2 = driver.run_views(kCombineStage, combine_inputs,
                                      combine_params, options2);
  driver.finish();

  // Answers come back out of the routed mail (mailbox = query index):
  // combine bodies may have run in worker processes.  Each query's trace
  // gets its share of the round pair.
  auto round1 = mpc::attribute_round(kCandidatesStage.label, reports1,
                                     task_owner, caps);
  auto round2 = mpc::attribute_round(kCombineStage.label, reports2, live, caps);
  for (const std::uint32_t q : live) {
    UlamMpcResult& result = run.queries[q];
    result.distance = driver.receive(mail2, mpc::Channel<std::int64_t>(q)).at(0);
    MPCSD_ENSURES(result.distance >= 0);
    mpc::RoundReport& r1 = round1[q];
    mpc::RoundReport& r2 = round2[q];
    if (tracing) {
      // The query's share of the shared round pair, on its own track.
      rec->span_since(
          "batch:ulam:query", "batch", pass_ts,
          {{"query", static_cast<double>(q)},
           {"machines", static_cast<double>(r1.machines + r2.machines)},
           {"work", static_cast<double>(r1.total_work + r2.total_work)},
           {"comm_bytes",
            static_cast<double>(r1.total_comm_bytes + r2.total_comm_bytes)}},
          q + 1);
    }
    result.trace.add_round(std::move(r1));
    result.trace.add_round(std::move(r2));
  }
  run.trace = driver.take_trace();
  run.passes = driver.passes();
  MPCSD_ENSURES(run.trace.round_count() ==
                2 + (params.in_model_position_map ? 2 * live.size() : 0));
  return run;
}

UlamMpcResult ulam_distance_mpc(SymView s, SymView t, const UlamMpcParams& params) {
  obs::Span solve_span(params.recorder, "ulam:solve", "solver");
  solve_span.arg("n", static_cast<double>(s.size()));
  UlamPipelineResult run = run_ulam_pipeline({UlamQuery{s, t}}, params);
  UlamMpcResult result = std::move(run.queries.front());
  result.trace = std::move(run.trace);
  solve_span.arg("blocks", static_cast<double>(result.block_count));
  const std::size_t rounds =
      s.empty() ? 0u : (params.in_model_position_map ? 4u : 2u);
  MPCSD_ENSURES(result.trace.round_count() == rounds);
  return result;
}

}  // namespace mpcsd::ulam_mpc
