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

constexpr mpc::Channel<std::vector<seq::Tuple>> kTuples{0, "tuples"};
constexpr mpc::Channel<std::int64_t> kAnswer{0, "answer"};

/// Round params of the distances stage: one guess and its geometry.
struct GuessParams {
  SmallDistanceParams params;
  CandidateGeometry geo;

  static constexpr auto fields() {
    return std::make_tuple(&GuessParams::params, &GuessParams::geo);
  }
};

/// Stage 1 (Algorithm 3): block-vs-candidate distances.
void distances_body(mpc::StageContext<SmallTask>& ctx, const GuessParams& guess) {
  std::uint64_t work = 0;
  const auto tuples = small_task_tuples(ctx.in(), guess.params, guess.geo, &work);
  ctx.charge_work(work);
  ctx.charge_scratch((ctx.in().block.size() + ctx.in().chunk.size()) *
                     sizeof(Symbol));
  ctx.send(kTuples, tuples);
}

const mpc::Stage<SmallTask, GuessParams> kDistancesStage{"edit:small:distances",
                                                         &distances_body};
const mpc::Stage<mpc::TupleInbox, mpc::CombineParams> kCombineStage{
    "edit:small:combine", &mpc::combine_body};

mpc::Plan small_plan() {
  return mpc::Plan{
      "edit:small",
      {
          {"edit:small:distances", "SmallTask (sharded input)", "tuples"},
          {"edit:small:combine", "Inbox<tuples>", "answer"},
      }};
}

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

void BlockEvaluator::evaluate_start(std::int64_t sp, std::vector<seq::Tuple>& out,
                                    std::uint64_t* work) {
  const SymView block(task_.block);
  const SymView chunk(task_.chunk);
  const auto m = static_cast<std::int64_t>(task_.block.size());
  const std::int64_t offset = sp - task_.chunk_begin;

  // Classify every candidate by the path its unit call would take; the
  // pass reads need s̄[sp, sp + reach) and the deltas of windows < m.
  candidates_.clear();
  keep_.clear();
  std::int64_t reach = 0;
  for (const std::int64_t ep : candidate_ends(sp, m, geo_)) {
    Candidate c;
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
        reach = std::max(reach, len);
        if (len < m && (keep_.empty() || keep_.back() != len)) keep_.push_back(len);
      }
    }
    candidates_.push_back(c);
  }
  if (reach > 0) {
    if (!pass_.has_value()) pass_.emplace(block);
    pass_->run(subview(chunk, {offset, offset + reach}), keep_);
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
      const auto answer = pass_->bounded(len, c.lim);
      if (work != nullptr) {
        *work += seq::myers_bounded_cells(
            static_cast<std::size_t>(std::min(m, len)), answer.words, c.lim);
      }
      if (answer.distance.has_value() && *answer.distance <= c.limit) {
        e = answer.distance;
      }
    }
    if (e.has_value()) {
      out.push_back(seq::Tuple{task_.block_begin, task_.block_begin + m, sp, c.end, *e});
    }
  }
}

std::vector<seq::Tuple> small_task_tuples(const SmallTask& task,
                                          const SmallDistanceParams& params,
                                          const CandidateGeometry& geo,
                                          std::uint64_t* work) {
  BlockEvaluator evaluator(task, params, geo);
  std::vector<seq::Tuple> tuples;
  for (const std::int64_t sp : task.starts) evaluator.evaluate_start(sp, tuples, work);
  return tuples;
}

PipelineResult run_small_distance(SymView s, SymView t,
                                  const SmallDistanceParams& params) {
  MPCSD_EXPECTS(params.x > 0.0 && params.x < 1.0);
  MPCSD_EXPECTS(params.eps_prime > 0.0);
  MPCSD_EXPECTS(params.delta_guess >= 0);

  PipelineResult result;
  const auto n = static_cast<std::int64_t>(s.size());
  const auto n_bar = static_cast<std::int64_t>(t.size());
  if (n == 0 || n_bar == 0) {
    result.distance = std::max(n, n_bar);
    return result;
  }

  const CandidateGeometry geo = small_geometry(n, n_bar, params);

  mpc::ClusterConfig config{params};
  config.memory_limit_bytes = params.memory_cap_bytes;
  config.seed = params.seed;
  mpc::Driver driver(small_plan(), config);
  obs::Span pipeline_span(params.recorder, "edit:small", "pipeline");
  pipeline_span.arg("guess", static_cast<double>(params.delta_guess));

  const std::vector<Bytes> inputs =
      driver.shard_parallel(make_small_tasks(s, t, params, geo));
  result.machines_round1 = inputs.size();

  // ---- Stage 1 (Algorithm 3): block-vs-candidate distances. ----
  const auto mail = driver.run(kDistancesStage, inputs, GuessParams{params, geo});

  // ---- Stage 2 (Algorithm 4): combine on one machine (zero-copy inbox). ----
  // The answer returns through the mailbox, the tuple count through the
  // unmetered stash: bodies may run in worker processes whose host
  // writes are invisible (mpc/backend.hpp).
  std::vector<Bytes> combine_stash;
  mpc::RoundOptions combine_options;
  combine_options.machine_stash = &combine_stash;
  const auto mail2 = driver.run_views(
      kCombineStage, {mpc::gather_view(mail, kTuples.mailbox)},
      mpc::CombineParams{{{kAnswer.mailbox, n, n_bar}}, seq::GapCost::kSum},
      combine_options);
  driver.finish();

  const auto answers = driver.receive(mail2, kAnswer);
  MPCSD_ENSURES(answers.size() == 1);
  result.distance = answers.front();
  result.tuple_count =
      static_cast<std::size_t>(mpc::unstash<std::uint64_t>(combine_stash.at(0)));
  result.trace = driver.take_trace();
  MPCSD_ENSURES(result.trace.round_count() == 2);
  return result;
}

}  // namespace mpcsd::edit_mpc
