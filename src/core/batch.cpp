#include "core/batch.hpp"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "common/contracts.hpp"
#include "common/grid.hpp"
#include "common/rng.hpp"
#include "edit_mpc/small_distance.hpp"
#include "mpc/combine_round.hpp"
#include "mpc/plan.hpp"
#include "seq/combine.hpp"
#include "seq/lis.hpp"
#include "ulam_mpc/candidates.hpp"

namespace mpcsd::core {

namespace {

/// Attributes one shared round to one query: sums/maxima over the machines
/// the query owns, with violations re-checked against the query's own cap.
mpc::RoundReport attribute_round(const std::string& label,
                                 const std::vector<mpc::MachineReport>& reports,
                                 const std::vector<std::uint32_t>& owner,
                                 std::uint32_t query, std::uint64_t cap) {
  mpc::RoundReport rr;
  rr.label = label;
  for (std::size_t i = 0; i < reports.size(); ++i) {
    if (owner[i] != query) continue;
    const mpc::MachineReport& m = reports[i];
    ++rr.machines;
    rr.max_machine_memory = std::max(rr.max_machine_memory, m.memory_footprint());
    rr.total_comm_bytes += m.output_bytes;
    rr.total_input_bytes += m.input_bytes;
    rr.total_work += m.work;
    rr.max_machine_work = std::max(rr.max_machine_work, m.work);
    if (m.memory_footprint() > cap) ++rr.memory_violations;
  }
  return rr;
}

struct QueryMeta {
  std::int64_t n = 0;
  std::int64_t n_bar = 0;
  std::uint64_t cap = 0;
  bool degenerate = false;  ///< answered driver-side, owns no machines
};

/// Emits one attributed span on the query's own track (query id + 1)
/// covering [pass_ts, now]: the query's share of a shared round-pair.  The
/// interval is shared with every co-scheduled query; the args (machines,
/// work, comm) are the query's alone, aggregated from machine reports.
void emit_query_span(obs::Recorder* rec, const char* name,
                     std::uint64_t pass_ts, std::uint32_t query,
                     std::vector<obs::Arg> args) {
  obs::TraceEvent ev;
  ev.kind = obs::EventKind::kSpan;
  ev.name = name;
  ev.category = "batch";
  ev.ts_us = pass_ts;
  ev.dur_us = rec->now_us() - pass_ts;
  ev.track = query + 1;
  ev.args = std::move(args);
  rec->emit(std::move(ev));
}

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
  std::vector<std::uint32_t> combine_owner = combine_query;
  for (std::uint32_t q = 0; q < meta.size(); ++q) {
    if (meta[q].degenerate) continue;
    result.queries[q].distance = answers[q];
    mpc::RoundReport r1 = attribute_round("batch:ulam:candidates", reports1,
                                          task_owner, q, meta[q].cap);
    mpc::RoundReport r2 = attribute_round("batch:ulam:combine", reports2,
                                          combine_owner, q, meta[q].cap);
    if (tracing) {
      emit_query_span(
          rec, "batch:ulam:query", pass_ts, q,
          {{"query", static_cast<double>(q)},
           {"machines", static_cast<double>(r1.machines + r2.machines)},
           {"work", static_cast<double>(r1.total_work + r2.total_work)},
           {"comm_bytes",
            static_cast<double>(r1.total_comm_bytes + r2.total_comm_bytes)}});
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
// Edit batch.  A (query, guess) pipeline instance is a *cell*; cell
// machines share a distances round, cell combine machines share a combine
// round.  Mailbox = cell id (within the round-pair).
//
//   kParallelGuess: every cell of every query runs in one round-pair.
//   kThroughput:    one round-pair per escalation pass; pass p runs the
//                   p-th unaccepted rung of every unresolved query.
// ---------------------------------------------------------------------

/// One (query, guess) pipeline instance.
struct EditCell {
  std::uint32_t query = 0;
  std::int64_t guess = 0;
  edit_mpc::SmallDistanceParams params;
  edit_mpc::CandidateGeometry geo;

  static constexpr auto fields() {
    return std::make_tuple(&EditCell::query, &EditCell::guess,
                           &EditCell::params, &EditCell::geo);
  }
};

/// Round-1 machine input: one small-distance task of one cell.
struct EditBatchTask {
  std::uint32_t cell = 0;
  edit_mpc::SmallTask task;

  static constexpr auto fields() {
    return std::make_tuple(&EditBatchTask::cell, &EditBatchTask::task);
  }
};

/// Round 1: Algorithm 3 on one task of one cell; params hold every cell
/// of the round-pair, by cell id.
void edit_distances_body(mpc::StageContext<EditBatchTask>& ctx,
                         const std::vector<EditCell>& cells) {
  const EditCell& cell = cells[ctx.in().cell];
  std::uint64_t work = 0;
  const auto tuples =
      edit_mpc::small_task_tuples(ctx.in().task, cell.params, cell.geo, &work);
  ctx.charge_work(work);
  ctx.charge_scratch((ctx.in().task.block.size() + ctx.in().task.chunk.size()) *
                     sizeof(Symbol));
  ctx.send(mpc::Channel<std::vector<seq::Tuple>>(ctx.in().cell), tuples);
}

const mpc::Stage<EditBatchTask, std::vector<EditCell>> kEditDistancesStage{
    "batch:edit:distances", &edit_distances_body};
const mpc::Stage<mpc::TupleInbox, mpc::CombineParams> kEditCombineStage{
    "batch:edit:combine", &mpc::combine_body};

/// Per-query precomputation: the clipped guess ladder and the per-rung
/// seeds.  Seeds chain along the ladder exactly as the parallel-guess mode
/// (and the sequential solver) derive them, so a kThroughput run executes
/// byte-identical cells for every rung it shares with kParallelGuess.
struct EditQueryPlan {
  std::vector<std::int64_t> guesses;
  std::vector<std::uint64_t> seeds;
};

EditCell make_edit_cell(std::uint32_t q, const EditQueryPlan& plan,
                        std::size_t rung, const QueryMeta& m,
                        const edit_mpc::EditMpcParams& params,
                        double eps_prime) {
  EditCell cell;
  cell.query = q;
  cell.guess = plan.guesses[rung];
  cell.params.eps_prime = eps_prime;
  cell.params.x = params.x;
  cell.params.delta_guess = cell.guess;
  cell.params.unit = params.unit;
  cell.params.approx = params.approx;
  cell.params.seed = plan.seeds[rung];
  cell.params.memory_cap_bytes = m.cap;
  cell.geo = edit_mpc::small_geometry(m.n, m.n_bar, cell.params);
  return cell;
}

/// One shared round-pair over `cells`: builds the tasks (parallel, on the
/// round worker pool), runs the distances and combine stages with per-query
/// caps, attributes both rounds to every query in `attribute_queries`
/// (queries without a cell get zero-machine rounds), and returns one
/// combined answer per cell.
std::vector<std::int64_t> run_edit_round_pair(
    mpc::Driver& driver, const BatchRequest& request,
    const std::vector<QueryMeta>& meta, const std::vector<EditCell>& cells,
    const std::vector<std::uint32_t>& attribute_queries,
    std::vector<QueryResult>& queries) {
  obs::Recorder* rec = driver.cluster().recorder();
  const bool tracing = rec != nullptr && rec->enabled();
  const std::uint64_t pass_ts = tracing ? rec->now_us() : 0;
  obs::Span pass_span(rec, "batch:edit:pass", "batch");
  pass_span.arg("cells", static_cast<double>(cells.size()));

  // Per-cell task construction is independent; flatten serially in cell
  // order so machine ids stay deterministic.
  std::vector<std::vector<EditBatchTask>> builds(cells.size());
  driver.cluster().pool().parallel_for(
      cells.size(),
      [&](std::size_t c) {
        const EditCell& cell = cells[c];
        const BatchQuery& query = request.queries[cell.query];
        for (auto& task : edit_mpc::make_small_tasks(
                 SymView(query.s), SymView(query.t), cell.params, cell.geo)) {
          builds[c].push_back(
              EditBatchTask{static_cast<std::uint32_t>(c), std::move(task)});
        }
      },
      /*grain=*/1);

  std::vector<EditBatchTask> tasks;
  std::vector<std::uint64_t> task_limits;
  std::vector<std::uint32_t> task_owner;
  std::vector<std::uint32_t> task_cell;
  for (std::size_t c = 0; c < builds.size(); ++c) {
    for (EditBatchTask& task : builds[c]) {
      tasks.push_back(std::move(task));
      task_limits.push_back(meta[cells[c].query].cap);
      task_owner.push_back(cells[c].query);
      task_cell.push_back(static_cast<std::uint32_t>(c));
    }
  }

  std::vector<mpc::MachineReport> reports1;
  mpc::RoundOptions options1;
  options1.machine_memory_limits = &task_limits;
  options1.machine_reports = &reports1;
  const auto mail = driver.run(kEditDistancesStage, driver.shard_parallel(tasks),
                               cells, options1);

  // One combine machine per cell; its answer goes to mailbox = cell id.
  std::vector<ByteChain> combine_inputs;
  std::vector<std::uint64_t> combine_limits;
  std::vector<std::uint32_t> combine_owner;
  mpc::CombineParams combine_params;
  combine_params.gap = seq::GapCost::kSum;
  for (std::uint32_t c = 0; c < cells.size(); ++c) {
    const QueryMeta& m = meta[cells[c].query];
    combine_inputs.push_back(mpc::gather_view(mail, c));
    combine_limits.push_back(m.cap);
    combine_owner.push_back(cells[c].query);
    combine_params.targets.push_back({c, m.n, m.n_bar});
  }

  std::vector<mpc::MachineReport> reports2;
  mpc::RoundOptions options2;
  options2.machine_memory_limits = &combine_limits;
  options2.machine_reports = &reports2;
  const auto mail2 = driver.run_views(kEditCombineStage, combine_inputs,
                                      combine_params, options2);

  // Per-cell answers return through the routed mail (mailbox = cell id):
  // combine bodies may have run in worker processes.
  std::vector<std::int64_t> cell_answers(cells.size(), 0);
  for (std::uint32_t c = 0; c < cells.size(); ++c) {
    cell_answers[c] = driver.receive(mail2, mpc::Channel<std::int64_t>(c)).at(0);
  }

  for (const std::uint32_t q : attribute_queries) {
    queries[q].trace.add_round(attribute_round("batch:edit:distances", reports1,
                                               task_owner, q, meta[q].cap));
    queries[q].trace.add_round(attribute_round("batch:edit:combine", reports2,
                                               combine_owner, q, meta[q].cap));
  }
  if (tracing) {
    // One attributed span per (query, guess rung): the cell's share of this
    // shared round-pair, on the owning query's track.
    for (std::uint32_t c = 0; c < cells.size(); ++c) {
      std::uint64_t work = reports2[c].work;
      std::uint64_t comm = reports2[c].output_bytes;
      std::size_t machines = 1;  // the cell's combine machine
      for (std::size_t i = 0; i < task_cell.size(); ++i) {
        if (task_cell[i] != c) continue;
        work += reports1[i].work;
        comm += reports1[i].output_bytes;
        ++machines;
      }
      emit_query_span(rec, "batch:edit:rung", pass_ts, cells[c].query,
                      {{"query", static_cast<double>(cells[c].query)},
                       {"guess", static_cast<double>(cells[c].guess)},
                       {"machines", static_cast<double>(machines)},
                       {"work", static_cast<double>(work)},
                       {"comm_bytes", static_cast<double>(comm)}});
    }
  }
  return cell_answers;
}

BatchResult run_edit_batch(const BatchRequest& request) {
  const auto& params = request.edit;
  BatchResult result;
  result.queries.resize(request.queries.size());

  // Per-machine limits carry the caps; the cluster-wide one stays unlimited.
  mpc::ClusterConfig config{params};
  config.seed = params.seed;
  config.recorder = request.recorder;
  mpc::Driver driver(
      mpc::Plan{"batch:edit",
                {
                    {"batch:edit:distances", "EditBatchTask (sharded input)",
                     "tuples@cell"},
                    {"batch:edit:combine", "Inbox<tuples>@cell", "answer@cell"},
                },
                /*repeating=*/request.mode == BatchMode::kThroughput},
      config);

  // Per-query prep: degenerate detection (the equality scan is O(n)) and
  // the clipped guess ladder with chained per-rung seeds.
  const double eps_prime = edit_mpc::edit_eps_prime(params);
  std::vector<QueryMeta> meta(request.queries.size());
  std::vector<EditQueryPlan> plans(request.queries.size());
  driver.cluster().pool().parallel_for(
      request.queries.size(),
      [&](std::size_t qi) {
        const auto q = static_cast<std::uint32_t>(qi);
        const BatchQuery& query = request.queries[q];
        QueryMeta& m = meta[q];
        m.n = static_cast<std::int64_t>(query.s.size());
        m.n_bar = static_cast<std::int64_t>(query.t.size());
        if (m.n == m.n_bar &&
            std::equal(query.s.begin(), query.s.end(), query.t.begin())) {
          m.degenerate = true;
          return;
        }
        if (m.n == 0 || m.n_bar == 0) {
          m.degenerate = true;
          result.queries[q].distance = std::max(m.n, m.n_bar);
          return;
        }
        m.cap = edit_mpc::edit_memory_cap_bytes(m.n, params);
        result.queries[q].memory_cap_bytes = m.cap;

        // The guess ladder, clipped to the small-distance regime.
        const std::int64_t small_limit =
            edit_mpc::small_distance_limit(m.n, params.x);
        std::uint64_t guess_seed = params.seed + q * 0x9e3779b97f4a7c15ULL;
        for (const std::int64_t guess :
             geometric_grid(std::max(m.n, m.n_bar), params.epsilon)) {
          if (guess == 0 || guess > small_limit) continue;
          guess_seed = splitmix64(guess_seed + static_cast<std::uint64_t>(guess));
          plans[q].guesses.push_back(guess);
          plans[q].seeds.push_back(guess_seed);
        }
      },
      /*grain=*/1);

  // Trivial delete-all/insert-all bound; also the answer for a live query
  // whose clipped ladder is empty.
  std::vector<std::int64_t> best(meta.size(), 0);
  for (std::uint32_t q = 0; q < meta.size(); ++q) {
    best[q] = meta[q].n + meta[q].n_bar;
  }

  if (request.mode == BatchMode::kParallelGuess) {
    // Every cell of every query side by side in one round-pair.
    std::vector<EditCell> cells;
    std::vector<std::vector<std::uint32_t>> query_cells(meta.size());
    std::vector<std::uint32_t> live;
    for (std::uint32_t q = 0; q < meta.size(); ++q) {
      if (meta[q].degenerate) continue;
      live.push_back(q);
      for (std::size_t rung = 0; rung < plans[q].guesses.size(); ++rung) {
        query_cells[q].push_back(static_cast<std::uint32_t>(cells.size()));
        cells.push_back(make_edit_cell(q, plans[q], rung, meta[q], params,
                                       eps_prime));
      }
    }
    const auto cell_answers =
        run_edit_round_pair(driver, request, meta, cells, live, result.queries);
    driver.finish();

    for (std::uint32_t q = 0; q < meta.size(); ++q) {
      if (meta[q].degenerate) continue;
      // The guesses ran side by side; pick the best answer and record the
      // first self-certifying guess (the solver's accept condition).
      std::int64_t accepted = 0;
      for (const std::uint32_t c : query_cells[q]) {
        best[q] = std::min(best[q], cell_answers[c]);
        if (accepted == 0 &&
            cell_answers[c] <=
                edit_mpc::accept_threshold(cells[c].guess, params.epsilon)) {
          accepted = cells[c].guess;
        }
      }
      result.queries[q].distance = best[q];
      result.queries[q].accepted_guess = accepted;
      result.queries[q].rungs_run = query_cells[q].size();
    }
    result.trace = driver.take_trace();
    result.passes = driver.passes();
    MPCSD_ENSURES(result.trace.round_count() == 2);
    return result;
  }

  // ---- BatchMode::kThroughput: adaptive guess escalation. ----
  // The router triages live queries before pass 1 (core/router.hpp): under
  // kAuto the prefilters + capped sequential probe either retire a query
  // with its exact distance or prove a lower bound that picks its starting
  // rung; kOff leaves every query exactly where the pre-router engine
  // started it.  Decisions depend only on query content, batch occupancy,
  // and the worker count — never on the execution backend — so the batch
  // trace hash stays backend-independent under every policy.
  const RouterPolicy policy = resolved_router_policy(request.router);
  std::vector<RouteDecision> decisions(meta.size());
  if (policy == RouterPolicy::kAuto || policy == RouterPolicy::kAlwaysSeq) {
    std::vector<std::uint32_t> live;
    for (std::uint32_t q = 0; q < meta.size(); ++q) {
      if (!meta[q].degenerate) live.push_back(q);
    }
    obs::Recorder* rec = request.recorder;
    const bool tracing = rec != nullptr && rec->enabled();
    obs::Span router_span(rec, "batch:edit:router", "router");
    router_span.arg("live", static_cast<double>(live.size()));
    const std::size_t workers = driver.cluster().pool().worker_count();
    driver.cluster().pool().parallel_for(
        live.size(),
        [&](std::size_t i) {
          const std::uint32_t q = live[i];
          const BatchQuery& query = request.queries[q];
          decisions[q] = route_query(SymView(query.s), SymView(query.t),
                                     policy, live.size(), workers);
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

  std::vector<std::uint32_t> unresolved;
  std::vector<std::size_t> rung(meta.size(), 0);
  for (std::uint32_t q = 0; q < meta.size(); ++q) {
    if (meta[q].degenerate) continue;
    if (decisions[q].retire) {
      // Routed to the sequential fast path: exact distance, no rungs, no
      // share of any shared round (accepted_guess stays 0, like a query the
      // ladder could not certify — exactness is the stronger guarantee).
      result.queries[q].distance = decisions[q].distance;
      continue;
    }
    if (plans[q].guesses.empty()) {
      result.queries[q].distance = best[q];  // no rung in regime: trivial bound
      continue;
    }
    // A routed lower bound skips rungs that could never self-certify:
    // answer >= ed >= lb, so a rung with accept_threshold(guess) < lb
    // cannot satisfy the accept condition.  Clamp to the last rung.
    std::size_t start = 0;
    while (start + 1 < plans[q].guesses.size() &&
           edit_mpc::accept_threshold(plans[q].guesses[start], params.epsilon) <
               decisions[q].lower_bound) {
      ++start;
    }
    rung[q] = start;
    unresolved.push_back(q);
  }

  while (!unresolved.empty()) {
    std::vector<EditCell> cells;
    cells.reserve(unresolved.size());
    for (const std::uint32_t q : unresolved) {
      cells.push_back(
          make_edit_cell(q, plans[q], rung[q], meta[q], params, eps_prime));
    }
    const auto cell_answers = run_edit_round_pair(driver, request, meta, cells,
                                                  unresolved, result.queries);

    std::vector<std::uint32_t> survivors;
    for (std::size_t c = 0; c < cells.size(); ++c) {
      const std::uint32_t q = cells[c].query;
      best[q] = std::min(best[q], cell_answers[c]);
      ++result.queries[q].rungs_run;
      if (cell_answers[c] <=
          edit_mpc::accept_threshold(cells[c].guess, params.epsilon)) {
        // Self-certified: this rung is >= ed(s, t) whp, later rungs cannot
        // improve the guarantee — retire the query.
        result.queries[q].accepted_guess = cells[c].guess;
        result.queries[q].distance = best[q];
      } else if (++rung[q] == plans[q].guesses.size()) {
        // Ladder exhausted inside the small-distance regime without
        // certification (the large-distance territory): keep the best
        // realizable bound, as the parallel mode does.
        result.queries[q].distance = best[q];
      } else {
        survivors.push_back(q);
      }
    }
    unresolved = std::move(survivors);
  }
  driver.finish();
  result.trace = driver.take_trace();
  result.passes = driver.passes();
  MPCSD_ENSURES(result.trace.round_count() == 2 * result.passes);
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
