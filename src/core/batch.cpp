#include "core/batch.hpp"

#include <algorithm>
#include <unordered_map>

#include "common/contracts.hpp"
#include "common/grid.hpp"
#include "common/thread_pool.hpp"
#include "mpc/combine_round.hpp"
#include "mpc/plan.hpp"
#include "seq/combine.hpp"
#include "seq/lis.hpp"
#include "ulam_mpc/candidates.hpp"

namespace mpcsd::core {

namespace {

struct QueryMeta {
  std::int64_t n = 0;
  std::int64_t n_bar = 0;
  std::uint64_t cap = 0;
  bool degenerate = false;  ///< answered driver-side, owns no machines
};

// ---------------------------------------------------------------------
// Ulam batch: every query's block machines share round 1, every query's
// combine machine shares round 2.  Mailbox = query id.  There is no guess
// ladder, so BatchMode does not change the execution.
// ---------------------------------------------------------------------

/// Round-1 machine input: one block of one query.
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
/// query's candidate parameters, by query id.
void ulam_candidates_body(mpc::StageContext<UlamBatchTask>& ctx,
                          const std::vector<ulam_mpc::CandidateParams>& queries) {
  const ulam_mpc::CandidateParams& cp = queries[ctx.in().query];
  ulam_mpc::CandidateStats st;
  const auto tuples = ulam_mpc::build_block_candidates(
      ctx.in().begin, ctx.in().positions, cp, ctx.rng(), &st);
  ctx.charge_work(st.work);
  ctx.charge_scratch(ctx.in().positions.size() * 32);
  ctx.send(mpc::Channel<std::vector<seq::Tuple>>(ctx.in().query), tuples);
}

const mpc::Stage<UlamBatchTask, std::vector<ulam_mpc::CandidateParams>>
    kUlamCandidatesStage{"batch:ulam:candidates", &ulam_candidates_body};
const mpc::Stage<mpc::TupleInbox, mpc::CombineParams> kUlamCombineStage{
    "batch:ulam:combine", &mpc::combine_body};

BatchResult run_ulam_batch(const BatchRequest& request) {
  const auto& params = request.ulam;
  BatchResult result;
  result.queries.resize(request.queries.size());

  // Per-machine limits carry the caps; the cluster-wide one stays unlimited.
  mpc::ClusterConfig config{params};
  config.seed = params.seed;
  config.recorder = request.recorder;
  mpc::Driver driver(
      mpc::Plan{"batch:ulam",
                {
                    {"batch:ulam:candidates", "UlamBatchTask (sharded input)",
                     "tuples@query"},
                    {"batch:ulam:combine", "Inbox<tuples>@query", "answer@query"},
                }},
      config);
  const std::uint64_t pass_ts =
      (request.recorder != nullptr && request.recorder->enabled())
          ? request.recorder->now_us()
          : 0;
  obs::Span pass_span(request.recorder, "batch:ulam:pass", "batch");
  pass_span.arg("queries", static_cast<double>(request.queries.size()));

  // Per-query input construction (position map + block tasks) runs on the
  // round worker pool: queries are independent, and the serial flatten
  // below keeps the machine order deterministic.
  std::vector<QueryMeta> meta(request.queries.size());
  std::vector<std::vector<UlamBatchTask>> builds(request.queries.size());
  driver.cluster().pool().parallel_for(
      request.queries.size(),
      [&](std::size_t qi) {
        const auto q = static_cast<std::uint32_t>(qi);
        const BatchQuery& query = request.queries[q];
        MPCSD_EXPECTS(seq::is_repeat_free(SymView(query.s)));
        MPCSD_EXPECTS(seq::is_repeat_free(SymView(query.t)));
        QueryMeta& m = meta[q];
        m.n = static_cast<std::int64_t>(query.s.size());
        m.n_bar = static_cast<std::int64_t>(query.t.size());
        if (m.n == 0) {
          m.degenerate = true;
          result.queries[q].distance = m.n_bar;
          return;
        }
        m.cap = ulam_mpc::ulam_memory_cap_bytes(m.n, params);
        result.queries[q].memory_cap_bytes = m.cap;

        std::unordered_map<Symbol, std::int64_t> pos_in_t;
        pos_in_t.reserve(query.t.size() * 2);
        for (std::size_t j = 0; j < query.t.size(); ++j) {
          pos_in_t.emplace(query.t[j], static_cast<std::int64_t>(j));
        }
        const std::int64_t block =
            std::max<std::int64_t>(1, ipow_ceil(m.n, 1.0 - params.x));
        for (std::int64_t begin = 0; begin < m.n; begin += block) {
          const std::int64_t end = std::min(m.n, begin + block);
          UlamBatchTask task;
          task.query = q;
          task.begin = begin;
          task.positions.reserve(static_cast<std::size_t>(end - begin));
          for (std::int64_t i = begin; i < end; ++i) {
            const auto it = pos_in_t.find(query.s[static_cast<std::size_t>(i)]);
            task.positions.push_back(it == pos_in_t.end() ? -1 : it->second);
          }
          builds[q].push_back(std::move(task));
        }
      },
      /*grain=*/1);

  std::vector<UlamBatchTask> tasks;
  std::vector<std::uint64_t> task_limits;
  std::vector<std::uint32_t> task_owner;
  for (std::uint32_t q = 0; q < builds.size(); ++q) {
    for (UlamBatchTask& task : builds[q]) {
      tasks.push_back(std::move(task));
      task_limits.push_back(meta[q].cap);
      task_owner.push_back(q);
    }
  }

  std::vector<ulam_mpc::CandidateParams> query_params(meta.size());
  for (std::size_t q = 0; q < meta.size(); ++q) {
    query_params[q].eps_prime = params.epsilon / 2.0;
    query_params[q].theta_constant = params.theta_constant;
    query_params[q].n = meta[q].n;
    query_params[q].n_bar = meta[q].n_bar;
  }
  std::vector<mpc::MachineReport> reports1;
  mpc::RoundOptions options1;
  options1.machine_memory_limits = &task_limits;
  options1.machine_reports = &reports1;
  const auto mail = driver.run(kUlamCandidatesStage, driver.shard_parallel(tasks),
                               query_params, options1);

  // One combine machine per live query.
  std::vector<std::uint32_t> combine_query;
  std::vector<ByteChain> combine_inputs;
  std::vector<std::uint64_t> combine_limits;
  mpc::CombineParams combine_params;
  combine_params.gap = params.combine_gap;
  for (std::uint32_t q = 0; q < meta.size(); ++q) {
    if (meta[q].degenerate) continue;
    combine_query.push_back(q);
    combine_inputs.push_back(mpc::gather_view(mail, q));
    combine_limits.push_back(meta[q].cap);
    combine_params.targets.push_back({q, meta[q].n, meta[q].n_bar});
  }

  std::vector<mpc::MachineReport> reports2;
  mpc::RoundOptions options2;
  options2.machine_memory_limits = &combine_limits;
  options2.machine_reports = &reports2;
  const auto mail2 = driver.run_views(kUlamCombineStage, combine_inputs,
                                      combine_params, options2);
  driver.finish();

  // Answers come back out of the routed mail (mailbox = query id), not out
  // of shared host memory: combine bodies may have run in worker processes.
  std::vector<std::int64_t> answers(meta.size(), 0);
  for (const std::uint32_t q : combine_query) {
    answers[q] = driver.receive(mail2, mpc::Channel<std::int64_t>(q)).at(0);
  }

  // Per-query trace attribution from the machine reports.
  obs::Recorder* rec = request.recorder;
  const bool tracing = rec != nullptr && rec->enabled();
  std::vector<std::uint64_t> caps(meta.size());
  for (std::uint32_t q = 0; q < meta.size(); ++q) caps[q] = meta[q].cap;
  auto round1 = mpc::attribute_round(kUlamCandidatesStage.label, reports1,
                                     task_owner, caps);
  auto round2 = mpc::attribute_round(kUlamCombineStage.label, reports2,
                                     combine_query, caps);
  for (std::uint32_t q = 0; q < meta.size(); ++q) {
    if (meta[q].degenerate) continue;
    result.queries[q].distance = answers[q];
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
    result.queries[q].trace.add_round(std::move(r1));
    result.queries[q].trace.add_round(std::move(r2));
  }
  result.trace = driver.take_trace();
  result.passes = driver.passes();
  MPCSD_ENSURES(result.trace.round_count() == 2);
  return result;
}

// ---------------------------------------------------------------------
// Edit batch: router triage, then one run of the guess ladder
// (edit_mpc::run_guess_ladder) over every query the router left in.
// ---------------------------------------------------------------------

BatchResult run_edit_batch(const BatchRequest& request) {
  edit_mpc::EditMpcParams params = request.edit;
  params.recorder = request.recorder;
  params.guess_mode = request.mode == BatchMode::kThroughput
                          ? edit_mpc::GuessMode::kEarlyExit
                          : edit_mpc::GuessMode::kAll;
  BatchResult result;
  result.queries.resize(request.queries.size());

  // The router triages live queries before pass 1 (core/router.hpp): under
  // kAuto the prefilters + capped sequential probe either retire a query
  // with its exact distance or prove a lower bound that picks its starting
  // rung; kOff leaves every query at the bottom of its ladder.  Decisions
  // depend only on query content, batch occupancy, and the worker count —
  // never on the execution backend — so the batch trace hash stays
  // backend-independent under every policy.
  const RouterPolicy policy = request.mode == BatchMode::kThroughput
                                  ? resolved_router_policy(request.router)
                                  : RouterPolicy::kOff;
  std::vector<RouteDecision> decisions(request.queries.size());
  if (policy == RouterPolicy::kAuto || policy == RouterPolicy::kAlwaysSeq) {
    std::vector<std::uint32_t> live;
    for (std::uint32_t q = 0; q < request.queries.size(); ++q) {
      const BatchQuery& query = request.queries[q];
      if (!edit_mpc::trivial_distance(SymView(query.s), SymView(query.t))) {
        live.push_back(q);
      }
    }
    obs::Recorder* rec = request.recorder;
    const bool tracing = rec != nullptr && rec->enabled();
    obs::Span router_span(rec, "router:triage", "router");
    router_span.arg("live", static_cast<double>(live.size()));
    ThreadPool pool(params.workers);
    pool.parallel_for(
        live.size(),
        [&](std::size_t i) {
          const std::uint32_t q = live[i];
          const BatchQuery& query = request.queries[q];
          decisions[q] = route_query(SymView(query.s), SymView(query.t),
                                     policy, live.size(), pool.worker_count());
        },
        /*grain=*/1);
    std::uint64_t retired = 0;
    std::uint64_t probed = 0;
    std::uint64_t lower_bounded = 0;
    for (const std::uint32_t q : live) {
      const RouteDecision& d = decisions[q];
      retired += d.retire ? 1 : 0;
      probed += d.probed ? 1 : 0;
      lower_bounded += (!d.retire && d.lower_bound > 0) ? 1 : 0;
      if (tracing) {
        rec->instant("router:decision", "router",
                     {{"query", static_cast<double>(q)},
                      {"retired", d.retire ? 1.0 : 0.0},
                      {"probed", d.probed ? 1.0 : 0.0},
                      {"k_cap", static_cast<double>(d.k_cap)},
                      {"lower_bound", static_cast<double>(d.lower_bound)}},
                     q + 1);
      }
    }
    if (tracing) {
      rec->counter("router.examined", "router", static_cast<double>(live.size()));
      rec->counter("router.retired_seq", "router", static_cast<double>(retired));
      rec->counter("router.probed", "router", static_cast<double>(probed));
      rec->counter("router.lower_bounded", "router",
                   static_cast<double>(lower_bounded));
      rec->counter("router.to_plan", "router",
                   static_cast<double>(live.size() - retired));
    }
    router_span.arg("retired", static_cast<double>(retired));
  }

  std::vector<edit_mpc::LadderQuery> ladder;
  for (std::uint32_t q = 0; q < request.queries.size(); ++q) {
    const BatchQuery& query = request.queries[q];
    if (decisions[q].retire) {
      // Routed to the sequential fast path: exact distance, no rungs, no
      // share of any shared round (accepted_guess stays 0, like a query the
      // ladder could not certify — exactness is the stronger guarantee).
      result.queries[q].distance = decisions[q].distance;
      result.queries[q].memory_cap_bytes = edit_mpc::edit_memory_cap_bytes(
          static_cast<std::int64_t>(query.s.size()), params);
      continue;
    }
    ladder.push_back(edit_mpc::LadderQuery{SymView(query.s), SymView(query.t), q,
                                           decisions[q].lower_bound});
  }

  edit_mpc::LadderResult run = edit_mpc::run_guess_ladder(ladder, params);
  for (std::size_t i = 0; i < ladder.size(); ++i) {
    edit_mpc::EditMpcResult& r = run.queries[i];
    QueryResult& qr = result.queries[ladder[i].id];
    qr.distance = r.distance;
    qr.accepted_guess = r.accepted_guess;
    qr.rungs_run = r.guesses_run;
    qr.memory_cap_bytes = r.memory_cap_bytes;
    if (request.mode == BatchMode::kThroughput) {
      for (const edit_mpc::GuessOutcome& g : r.per_guess) {
        qr.trace.append_sequential(g.trace);
      }
    } else {
      qr.trace = std::move(r.trace);
    }
  }
  result.trace = std::move(run.trace);
  result.passes = run.passes;
  return result;
}

}  // namespace

BatchResult distance_batch(const BatchRequest& request) {
  if (request.ulam.recorder != nullptr || request.edit.recorder != nullptr) {
    throw std::invalid_argument(
        "distance_batch: set BatchRequest::recorder, not ulam.recorder or "
        "edit.recorder");
  }
  if (request.queries.empty()) return BatchResult{};
  switch (request.algorithm) {
    case BatchAlgorithm::kUlam:
      return run_ulam_batch(request);
    case BatchAlgorithm::kEdit:
      return run_edit_batch(request);
  }
  throw std::invalid_argument("distance_batch: unknown algorithm");
}

}  // namespace mpcsd::core
