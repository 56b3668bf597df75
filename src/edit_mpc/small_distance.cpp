#include "edit_mpc/small_distance.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>

#include "common/contracts.hpp"
#include "common/grid.hpp"
#include "mpc/combine_round.hpp"
#include "mpc/plan.hpp"
#include "seq/edit_distance.hpp"
#include "seq/edit_distance_fast.hpp"

namespace mpcsd::edit_mpc {

namespace {

/// Round params entry of the distances stage: one cell's guess, geometry
/// and first round-1 machine.  A machine's cell is the last one whose first
/// machine is at or before the machine's id, so tasks carry no cell id.
struct CellSpec {
  SmallDistanceParams params;
  CandidateGeometry geo;
  std::uint64_t first_machine = 0;

  static constexpr auto fields() {
    return std::make_tuple(&CellSpec::params, &CellSpec::geo, &CellSpec::first_machine);
  }
};

/// Stage 1 (Algorithm 3): block-vs-candidate distances, sent to the
/// machine's cell mailbox.
void distances_body(mpc::StageContext<SmallTask>& ctx,
                    const std::vector<CellSpec>& cells) {
  const auto after = std::upper_bound(
      cells.begin(), cells.end(), static_cast<std::uint64_t>(ctx.machine_id()),
      [](std::uint64_t id, const CellSpec& cell) { return id < cell.first_machine; });
  const auto c = static_cast<std::uint32_t>(after - cells.begin() - 1);
  std::uint64_t work = 0;
  const auto tuples = small_task_tuples(ctx.in(), cells[c].params, cells[c].geo, &work);
  ctx.charge_work(work);
  ctx.charge_scratch((ctx.in().block.size() + ctx.in().chunk.size()) *
                     sizeof(Symbol));
  ctx.send(mpc::Channel<std::vector<seq::Tuple>>(c), tuples);
}

const mpc::Stage<SmallTask, std::vector<CellSpec>> kDistancesStage{
    "edit:small:distances", &distances_body};
const mpc::Stage<mpc::TupleInbox, mpc::CombineParams> kCombineStage{
    "edit:small:combine", &mpc::combine_body};

/// The kApprox3 unit's settings for a pair censored at `limit`: bound the
/// unit's internal guess loop — if no guess up to ~limit certifies, the
/// true distance exceeds limit/(3+O(eps)) and the censored pair could
/// never join an accepted solution at this guess anyway.
seq::ApproxEditParams censored_approx(seq::ApproxEditParams approx,
                                      std::int64_t limit) {
  approx.guess_limit = 2 * limit + 4;
  return approx;
}

}  // namespace

std::optional<std::int64_t> unit_distance(SymView a, SymView b, DistanceUnit unit,
                                          const seq::ApproxEditParams& approx,
                                          std::int64_t cap, std::uint64_t* work) {
  const auto limit = std::min<std::int64_t>(
      cap, static_cast<std::int64_t>(a.size() + b.size()));
  // Length difference lower-bounds the distance: filter before any DP.
  const auto len_diff = std::abs(static_cast<std::int64_t>(a.size()) -
                                 static_cast<std::int64_t>(b.size()));
  if (len_diff > limit) return std::nullopt;
  if (a.empty() || b.empty()) {
    const auto d = static_cast<std::int64_t>(std::max(a.size(), b.size()));
    return d <= limit ? std::optional<std::int64_t>(d) : std::nullopt;
  }
  if (unit == DistanceUnit::kExactBanded) {
    return seq::edit_distance_bounded_fast(a, b, std::max<std::int64_t>(limit, 0), work);
  }
  const auto result = seq::approx_edit_distance(a, b, censored_approx(approx, limit));
  if (work != nullptr) *work += result.work;
  if (result.distance > limit) return std::nullopt;
  return result.distance;
}

CandidateGeometry small_geometry(std::int64_t n, std::int64_t n_bar,
                                 const SmallDistanceParams& params) {
  CandidateGeometry geo;
  geo.eps_prime = params.eps_prime;
  geo.n = n;
  geo.n_bar = n_bar;
  geo.block_size = std::max<std::int64_t>(1, ipow_ceil(n, 1.0 - params.x));
  geo.delta_guess = params.delta_guess;
  return geo;
}

std::vector<SmallTask> make_small_tasks(SymView s, SymView t,
                                        const SmallDistanceParams& params,
                                        const CandidateGeometry& geo) {
  const auto n = geo.n;
  const auto n_bar = geo.n_bar;
  const std::int64_t block = geo.block_size;
  const auto blocks = make_blocks(n, block);
  const std::int64_t max_len = std::min(
      static_cast<std::int64_t>(std::ceil(static_cast<double>(block) / params.eps_prime)),
      block + params.delta_guess);

  // One task per (block, start batch); a batch spans at most B so the s̄
  // chunk stays within Õ(n^{1-x}).
  std::vector<SmallTask> tasks;
  for (const Interval& blk : blocks) {
    const auto starts = candidate_starts(blk.begin, geo);
    std::size_t i = 0;
    while (i < starts.size()) {
      std::size_t j = i;
      while (params.batch_starts && j + 1 < starts.size() &&
             starts[j + 1] - starts[i] <= block) {
        ++j;
      }
      const std::int64_t chunk_begin = starts[i];
      const std::int64_t chunk_end = std::min(n_bar, starts[j] + max_len);
      SmallTask task;
      task.block_begin = blk.begin;
      task.block.assign(s.begin() + blk.begin, s.begin() + blk.end);
      task.starts.assign(starts.begin() + static_cast<std::ptrdiff_t>(i),
                         starts.begin() + static_cast<std::ptrdiff_t>(j + 1));
      task.chunk_begin = chunk_begin;
      task.chunk.assign(t.begin() + chunk_begin, t.begin() + chunk_end);
      tasks.push_back(std::move(task));
      i = j + 1;
    }
  }
  return tasks;
}

BlockEvaluator::BlockEvaluator(const SmallTask& task,
                               const SmallDistanceParams& params,
                               const CandidateGeometry& geo)
    : task_(task),
      params_(params),
      geo_(geo),
      // Censoring cap: a useful tuple's distance is at most the block's
      // share of the optimum (<= (1+eps)*guess); the approx unit may
      // overshoot by its 3x factor, so it gets more headroom.
      cap_(params.unit == DistanceUnit::kExactBanded
               ? 2 * params.delta_guess + 2
               : 4 * params.delta_guess + 8) {}

void BlockEvaluator::evaluate_starts(std::span<const std::int64_t> starts,
                                     std::vector<seq::Tuple>& out, std::uint64_t* work) {
  MPCSD_EXPECTS(!starts.empty() && starts.size() <= seq::MyersPrefixPass::kMaxLanes);
  const SymView block(task_.block);
  const SymView chunk(task_.chunk);
  const auto m = static_cast<std::int64_t>(task_.block.size());

  // Classify every candidate by the path its unit call would take; a
  // start with pass reads gets the next lane, over s̄[sp, sp + reach), and
  // the pass keeps the deltas of every such window < m.
  candidates_.clear();
  lanes_.clear();
  keep_.clear();
  for (const std::int64_t sp : starts) {
    const std::int64_t offset = sp - task_.chunk_begin;
    std::int64_t reach = 0;
    for (const std::int64_t ep : candidate_ends(sp, m, geo_)) {
      Candidate c;
      c.start = sp;
      c.end = ep;
      c.window = subview(chunk, {offset, ep - task_.chunk_begin});
      const auto len = static_cast<std::int64_t>(c.window.size());
      c.limit = std::min(cap_, m + len);
      if (params_.unit == DistanceUnit::kApprox3 && len > 0 &&
          std::abs(m - len) <= c.limit) {
        const auto lim = seq::censored_exact_cap(
            m, len, censored_approx(params_.approx, c.limit));
        if (lim.has_value() &&
            seq::edit_distance_banded_fast_kernel(block, c.window, *lim) ==
                seq::EditKernel::kMyersBounded) {
          c.lim = *lim;
          c.lane = lanes_.size();
          reach = std::max(reach, len);
          if (len < m) keep_.push_back(len);
        }
      }
      candidates_.push_back(c);
    }
    if (reach > 0) lanes_.push_back({offset, reach});
  }
  if (!lanes_.empty()) {
    std::sort(keep_.begin(), keep_.end());
    keep_.erase(std::unique(keep_.begin(), keep_.end()), keep_.end());
    if (!pass_.has_value()) pass_.emplace(block);
    pass_->run(chunk, lanes_, keep_);
  }

  for (const Candidate& c : candidates_) {
    std::optional<std::int64_t> e;
    if (c.lim < 0) {
      ++fallbacks_;
      e = unit_distance(block, c.window, params_.unit, params_.approx, cap_, work);
    } else {
      // unit_distance -> approx_edit_distance -> edit_distance_banded_fast
      // -> myers_banded_charged, with the shorter side as the pattern.
      const auto len = static_cast<std::int64_t>(c.window.size());
      const auto answer = pass_->bounded(c.lane, len, c.lim);
      if (work != nullptr) {
        *work += seq::myers_bounded_cells(
            static_cast<std::size_t>(std::min(m, len)), answer.words, c.lim);
      }
      if (answer.distance.has_value() && *answer.distance <= c.limit) {
        e = answer.distance;
      }
    }
    if (e.has_value()) {
      out.push_back(seq::Tuple{task_.block_begin, task_.block_begin + m, c.start, c.end, *e});
    }
  }
}

std::vector<seq::Tuple> small_task_tuples(const SmallTask& task,
                                          const SmallDistanceParams& params,
                                          const CandidateGeometry& geo,
                                          std::uint64_t* work) {
  BlockEvaluator evaluator(task, params, geo);
  std::vector<seq::Tuple> tuples;
  const std::span<const std::int64_t> starts(task.starts);
  for (std::size_t i = 0; i < starts.size(); i += seq::MyersPrefixPass::kMaxLanes) {
    evaluator.evaluate_starts(
        starts.subspan(i, std::min(seq::MyersPrefixPass::kMaxLanes, starts.size() - i)),
        tuples, work);
  }
  return tuples;
}

mpc::Plan small_plan() {
  return mpc::Plan{
      "edit:small",
      {
          {kDistancesStage.label, "SmallTask (sharded input)", "tuples@cell"},
          {kCombineStage.label, "Inbox<tuples>@cell", "answer@cell"},
      },
      /*repeating=*/true};
}

std::vector<PipelineResult> run_small_cells(mpc::Driver& driver,
                                            const std::vector<SmallCell>& cells) {
  // Per-cell task construction is independent; flatten serially in cell
  // order so machine ids stay deterministic.
  std::vector<CellSpec> specs(cells.size());
  std::vector<std::vector<SmallTask>> builds(cells.size());
  driver.cluster().pool().parallel_for(
      cells.size(),
      [&](std::size_t c) {
        const SmallCell& cell = cells[c];
        specs[c].params = cell.params;
        specs[c].geo = small_geometry(static_cast<std::int64_t>(cell.s.size()),
                                      static_cast<std::int64_t>(cell.t.size()),
                                      cell.params);
        builds[c] = make_small_tasks(cell.s, cell.t, cell.params, specs[c].geo);
      },
      /*grain=*/1);

  std::vector<SmallTask> tasks;
  std::vector<std::uint64_t> task_limits;
  std::vector<std::uint32_t> task_cell;
  std::vector<std::uint64_t> caps;
  std::vector<std::uint32_t> combine_cell;
  mpc::CombineParams combine_params{{}, seq::GapCost::kSum};
  for (std::uint32_t c = 0; c < cells.size(); ++c) {
    MPCSD_EXPECTS(!cells[c].s.empty() && !cells[c].t.empty());
    specs[c].first_machine = tasks.size();
    caps.push_back(cells[c].params.memory_cap_bytes);
    for (SmallTask& task : builds[c]) {
      tasks.push_back(std::move(task));
      task_limits.push_back(caps[c]);
      task_cell.push_back(c);
    }
    combine_cell.push_back(c);
    combine_params.targets.push_back({c, specs[c].geo.n, specs[c].geo.n_bar});
  }

  // ---- Stage 1 (Algorithm 3): block-vs-candidate distances. ----
  std::vector<mpc::MachineReport> reports1;
  mpc::RoundOptions options1;
  options1.machine_memory_limits = &task_limits;
  options1.machine_reports = &reports1;
  const auto mail = driver.run(kDistancesStage, driver.shard_parallel(tasks), specs,
                               options1);

  // ---- Stage 2 (Algorithm 4): one combine machine per cell.  Its inbox
  // is a view of the routed mail; the machine copies the tuples once, into
  // one array.  Answers return through the mailboxes: bodies may run in
  // worker processes whose host writes are invisible (mpc/backend.hpp). ----
  std::vector<ByteChain> combine_inputs;
  for (std::uint32_t c = 0; c < cells.size(); ++c) {
    combine_inputs.push_back(mpc::gather_view(mail, c));
  }
  std::vector<mpc::MachineReport> reports2;
  mpc::RoundOptions options2;
  options2.machine_memory_limits = &caps;
  options2.machine_reports = &reports2;
  const auto mail2 =
      driver.run_views(kCombineStage, combine_inputs, combine_params, options2);

  const auto round1 = mpc::attribute_round(kDistancesStage.label, reports1, task_cell, caps);
  const auto round2 = mpc::attribute_round(kCombineStage.label, reports2, combine_cell, caps);
  std::vector<PipelineResult> results(cells.size());
  for (std::uint32_t c = 0; c < cells.size(); ++c) {
    PipelineResult& result = results[c];
    result.distance = driver.receive(mail2, mpc::Channel<std::int64_t>(c)).at(0);
    result.trace.add_round(round1[c]);
    result.trace.add_round(round2[c]);
  }
  return results;
}

PipelineResult run_small_distance(SymView s, SymView t,
                                  const SmallDistanceParams& params) {
  MPCSD_EXPECTS(params.x > 0.0 && params.x < 1.0);
  MPCSD_EXPECTS(params.eps_prime > 0.0);
  MPCSD_EXPECTS(params.delta_guess >= 0);

  const auto n = static_cast<std::int64_t>(s.size());
  const auto n_bar = static_cast<std::int64_t>(t.size());
  if (n == 0 || n_bar == 0) {
    PipelineResult result;
    result.distance = std::max(n, n_bar);
    return result;
  }

  mpc::ClusterConfig config{params};
  config.memory_limit_bytes = params.memory_cap_bytes;
  config.seed = params.seed;
  mpc::Driver driver(small_plan(), config);
  obs::Span pipeline_span(params.recorder, "edit:small", "pipeline");
  pipeline_span.arg("guess", static_cast<double>(params.delta_guess));

  PipelineResult result = std::move(run_small_cells(driver, {SmallCell{s, t, params}}).front());
  driver.finish();
  // The one cell owns every machine: the cluster's own reports, which also
  // carry the rounds' wall clock.
  result.trace = driver.take_trace();
  MPCSD_ENSURES(result.trace.round_count() == 2);
  return result;
}

}  // namespace mpcsd::edit_mpc
