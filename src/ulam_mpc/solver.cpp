#include "ulam_mpc/solver.hpp"

#include <algorithm>
#include <cmath>
#include <unordered_map>
#include <vector>

#include "common/contracts.hpp"
#include "common/grid.hpp"
#include "mpc/combine_round.hpp"
#include "mpc/plan.hpp"
#include "mpc/primitives.hpp"
#include "seq/lis.hpp"

namespace mpcsd::ulam_mpc {

namespace {

/// Round-1 machine input: one block of s with the t-positions of its
/// symbols (the "character position map" feed of Algorithm 1).
struct BlockTask {
  std::int64_t begin = 0;
  std::vector<std::int64_t> positions;

  static constexpr auto fields() {
    return std::make_tuple(&BlockTask::begin, &BlockTask::positions);
  }
};

/// Round-1 -> round-2 channel: each block machine sends one tuple batch
/// (the wire layout of `seq::write_tuples`: u64 count + raw tuples).
constexpr mpc::Channel<std::vector<seq::Tuple>> kTuples{0, "tuples"};
/// Round-2 output: the combined distance.
constexpr mpc::Channel<std::int64_t> kAnswer{0, "answer"};

/// Stage 1 (Algorithm 1 on one block).  Per-machine stats travel on the
/// unmetered stash channel rather than a shared host array: machine bodies
/// may run in worker processes (mpc/backend.hpp).
void candidates_body(mpc::StageContext<BlockTask>& ctx, const CandidateParams& cp) {
  CandidateStats st{};
  const auto tuples = build_block_candidates(ctx.in().begin, ctx.in().positions,
                                             cp, ctx.rng(), &st);
  ctx.charge_work(st.work);
  ctx.charge_scratch(ctx.in().positions.size() * 32);
  ctx.send(kTuples, tuples);
  ctx.stash(st);
}

const mpc::Stage<BlockTask, CandidateParams> kCandidatesStage{
    "ulam:candidates", &candidates_body};
/// Stage 2 (Algorithm 2 on one machine): the answer rides the mailbox.
const mpc::Stage<mpc::TupleInbox, mpc::CombineParams> kCombineStage{
    "ulam:combine", &mpc::combine_body};

mpc::Plan ulam_plan() {
  return mpc::Plan{
      "ulam",
      {
          {"ulam:candidates", "BlockTask (sharded input)", "tuples"},
          {"ulam:combine", "Inbox<tuples>", "answer"},
      }};
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

UlamMpcResult ulam_distance_mpc(SymView s, SymView t, const UlamMpcParams& params) {
  MPCSD_EXPECTS(params.x > 0.0 && params.x < 1.0);
  MPCSD_EXPECTS(params.epsilon > 0.0);
  MPCSD_EXPECTS(seq::is_repeat_free(s));
  MPCSD_EXPECTS(seq::is_repeat_free(t));

  UlamMpcResult result;
  const auto n = static_cast<std::int64_t>(s.size());
  const auto n_bar = static_cast<std::int64_t>(t.size());
  if (n == 0) {
    result.distance = n_bar;
    return result;
  }

  const double eps_prime = params.epsilon / 2.0;
  const std::int64_t block = std::max<std::int64_t>(1, ipow_ceil(n, 1.0 - params.x));
  const std::int64_t block_count = ceil_div(n, block);
  result.block_size = block;
  result.block_count = static_cast<std::size_t>(block_count);
  result.memory_cap_bytes = ulam_memory_cap_bytes(n, params);

  mpc::ClusterConfig config{params};
  config.memory_limit_bytes = result.memory_cap_bytes;
  config.seed = params.seed;
  mpc::Driver driver(ulam_plan(), config);
  obs::Span solve_span(params.recorder, "ulam:solve", "solver");
  solve_span.arg("n", static_cast<double>(n))
      .arg("blocks", static_cast<double>(block_count));

  // Character-position map: either an in-model MPC hash join (two extra
  // rounds on this cluster, before the declared plan stages) or the
  // equivalent driver-side routing (the paper's "input is already
  // distributed" assumption).
  std::vector<std::int64_t> all_positions;
  if (params.in_model_position_map) {
    all_positions = mpc::position_map_round(
        driver.cluster(), s, t, static_cast<std::size_t>(block_count));
  } else {
    std::unordered_map<Symbol, std::int64_t> pos_in_t;
    pos_in_t.reserve(t.size() * 2);
    for (std::size_t j = 0; j < t.size(); ++j) {
      pos_in_t.emplace(t[j], static_cast<std::int64_t>(j));
    }
    all_positions.reserve(s.size());
    for (const Symbol v : s) {
      const auto it = pos_in_t.find(v);
      all_positions.push_back(it == pos_in_t.end() ? -1 : it->second);
    }
  }

  std::vector<BlockTask> tasks;
  tasks.reserve(static_cast<std::size_t>(block_count));
  for (std::int64_t b = 0; b < block_count; ++b) {
    const std::int64_t begin = b * block;
    const std::int64_t end = std::min(n, begin + block);
    tasks.push_back(BlockTask{
        begin, std::vector<std::int64_t>(all_positions.begin() + begin,
                                         all_positions.begin() + end)});
  }
  const std::vector<Bytes> inputs = driver.shard_parallel(tasks);

  // ---- Stage 1: Algorithm 1 on every block. ----
  CandidateParams cp;
  cp.eps_prime = eps_prime;
  cp.theta_constant = params.theta_constant;
  cp.n = n;
  cp.n_bar = n_bar;
  std::vector<Bytes> stage1_stash;
  mpc::RoundOptions stage1_options;
  stage1_options.machine_stash = &stage1_stash;
  const auto mail = driver.run(kCandidatesStage, inputs, cp, stage1_options);

  for (const Bytes& raw : stage1_stash) {
    const auto st = mpc::unstash<CandidateStats>(raw);
    result.stats.candidates_evaluated += st.candidates_evaluated;
    result.stats.candidates_pruned += st.candidates_pruned;
    result.stats.anchors_sampled += st.anchors_sampled;
    result.stats.anchors_distinct += st.anchors_distinct;
    result.stats.work += st.work;
  }

  // ---- Stage 2: Algorithm 2 on one machine. ----
  // The combine machine's inbox is a view of the routed round-1 mail; it
  // copies the tuple batches once, into one array.  Its metered input is
  // the full mailbox byte count.
  const auto mail2 = driver.run_views(
      kCombineStage, {mpc::gather_view(mail, kTuples.mailbox)},
      mpc::CombineParams{{{kAnswer.mailbox, n, n_bar}}, params.combine_gap});
  driver.finish();

  const auto answers = driver.receive(mail2, kAnswer);
  MPCSD_ENSURES(answers.size() == 1);
  result.distance = answers.front();
  result.trace = driver.take_trace();
  MPCSD_ENSURES(result.trace.round_count() ==
                (params.in_model_position_map ? 4u : 2u));
  MPCSD_ENSURES(result.distance >= 0);
  return result;
}

}  // namespace mpcsd::ulam_mpc
