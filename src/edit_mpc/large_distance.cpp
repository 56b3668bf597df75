#include "edit_mpc/large_distance.hpp"

#include <algorithm>
#include <cmath>
#include <unordered_map>
#include <unordered_set>
#include <variant>

#include "common/contracts.hpp"
#include "common/grid.hpp"
#include "common/rng.hpp"
#include "mpc/combine_round.hpp"
#include "mpc/plan.hpp"
#include "seq/combine.hpp"
#include "seq/edit_distance.hpp"
#include "seq/edit_distance_fast.hpp"

namespace mpcsd::edit_mpc {

namespace {

/// A deduplicated extension request: evaluate ed(block, window) in round 3.
/// Also the round-2 -> driver wire record (4 raw int64, no padding).
struct ExtendRequest {
  std::int64_t block_begin = 0;
  std::int64_t block_end = 0;
  std::int64_t window_begin = 0;
  std::int64_t window_end = 0;
};

struct CsObservation {
  std::int32_t cs = 0;
  std::int64_t distance = 0;
};

struct BlockObservation {
  std::int32_t rep = 0;
  std::int64_t distance = 0;
};

std::vector<Symbol> copy_syms(SymView v, Interval iv) {
  const SymView sub = subview(v, iv);
  return std::vector<Symbol>(sub.begin(), sub.end());
}

// ---- typed stage messages (wire layouts identical to the seed driver) ----

/// One node shipped to a round-1 machine: global id + its symbols.
struct IdSyms {
  std::int32_t id = 0;
  std::vector<Symbol> syms;

  static constexpr auto fields() {
    return std::make_tuple(&IdSyms::id, &IdSyms::syms);
  }
};

/// Round-1 machine input: a batch of representatives vs a batch of nodes.
struct RepVsNodes {
  std::vector<IdSyms> reps;
  std::vector<IdSyms> nodes;

  static constexpr auto fields() {
    return std::make_tuple(&RepVsNodes::reps, &RepVsNodes::nodes);
  }
};

/// One block's representative observations, shipped to a pairing machine.
struct BlockObsList {
  std::int64_t begin = 0;
  std::int64_t end = 0;
  std::vector<BlockObservation> obs;

  static constexpr auto fields() {
    return std::make_tuple(&BlockObsList::begin, &BlockObsList::end,
                           &BlockObsList::obs);
  }
};

/// One candidate window a representative covers: interval + ed(z, window).
struct CsWindow {
  std::int64_t begin = 0;
  std::int64_t end = 0;
  std::int64_t distance = 0;
};

/// One representative's candidate-substring observations.
struct RepCsList {
  std::int32_t rep = 0;
  std::vector<CsWindow> entries;

  static constexpr auto fields() {
    return std::make_tuple(&RepCsList::rep, &RepCsList::entries);
  }
};

/// Round-2 pairing-machine input: join blocks with reps on the shared rep.
struct PairingInput {
  std::vector<BlockObsList> blocks;
  std::vector<RepCsList> reps;

  static constexpr auto fields() {
    return std::make_tuple(&PairingInput::blocks, &PairingInput::reps);
  }
};

/// Round-2 sampled low-degree machine input: one block + its chunk of s̄.
struct SampledInput {
  std::int64_t block_begin = 0;
  std::vector<Symbol> block;
  std::uint64_t jb = 0;  ///< block's coverage level in the tau grid
  std::vector<std::int64_t> starts;
  std::int64_t chunk_begin = 0;
  std::vector<Symbol> chunk;

  static constexpr auto fields() {
    return std::make_tuple(&SampledInput::block_begin, &SampledInput::block,
                           &SampledInput::jb, &SampledInput::starts,
                           &SampledInput::chunk_begin, &SampledInput::chunk);
  }
};

/// The two machine families of Algorithm 6, tagged on the wire by the
/// variant index (0 = pairing, 1 = sampled — the seed driver's tag byte).
using ClassifyInput = std::variant<PairingInput, SampledInput>;

/// Round-3 machine input: a memory-capped batch of extension evaluations.
struct ExtendJob {
  std::int64_t block_begin = 0;
  std::int64_t block_end = 0;
  std::int64_t window_begin = 0;
  std::int64_t window_end = 0;
  std::vector<Symbol> block;
  std::vector<Symbol> window;

  static constexpr auto fields() {
    return std::make_tuple(&ExtendJob::block_begin, &ExtendJob::block_end,
                           &ExtendJob::window_begin, &ExtendJob::window_end,
                           &ExtendJob::block, &ExtendJob::window);
  }
};

struct ExtendBatch {
  std::vector<ExtendJob> jobs;

  static constexpr auto fields() {
    return std::make_tuple(&ExtendBatch::jobs);
  }
};

constexpr mpc::Channel<std::vector<RepTuple>> kRepTuples{0, "rep-tuples"};
constexpr mpc::Channel<std::vector<seq::Tuple>> kTuples{0, "tuples"};
constexpr mpc::Channel<std::vector<ExtendRequest>> kExtendRequests{1, "extend-requests"};
constexpr mpc::Channel<std::int64_t> kAnswer{0, "answer"};

/// Round params of the representatives stage: the tau grid and the block
/// count (node ids below it are blocks).
struct RepParams {
  std::vector<std::int64_t> taus;
  std::uint64_t nb = 0;

  static constexpr auto fields() {
    return std::make_tuple(&RepParams::taus, &RepParams::nb);
  }
};

/// Round params of the classify stage.
struct ClassifyParams {
  std::vector<std::int64_t> taus;
  CandidateGeometry geo;
  std::int64_t cap = 0;
  std::uint64_t max_extend = 0;
  std::int64_t block = 0;
  std::int64_t larger_block = 0;
  std::int64_t n = 0;
  std::int64_t n_bar = 0;

  static constexpr auto fields() {
    return std::make_tuple(&ClassifyParams::taus, &ClassifyParams::geo,
                           &ClassifyParams::cap, &ClassifyParams::max_extend,
                           &ClassifyParams::block, &ClassifyParams::larger_block,
                           &ClassifyParams::n, &ClassifyParams::n_bar);
  }
};

/// Stage 1 (Algorithm 5): representatives vs all nodes.
void representatives_body(mpc::StageContext<RepVsNodes>& ctx, const RepParams& p) {
  std::uint64_t work = 0;
  std::vector<RepTuple> tuples;
  for (const IdSyms& z : ctx.in().reps) {
    for (const IdSyms& v : ctx.in().nodes) {
      const auto limit = std::min<std::int64_t>(
          2 * p.taus.back(),
          static_cast<std::int64_t>(z.syms.size() + v.syms.size()));
      const auto d = seq::edit_distance_bounded_fast(SymView(z.syms), SymView(v.syms),
                                                std::max<std::int64_t>(limit, 1),
                                                &work);
      if (!d.has_value()) continue;
      const bool v_is_block = static_cast<std::size_t>(v.id) < p.nb;
      // Blocks need d <= tau; candidate substrings need d <= 2*tau.
      const std::int64_t needed = v_is_block ? *d : ceil_div(*d, 2);
      const std::size_t j = min_tau_index(p.taus, needed);
      if (j >= p.taus.size()) continue;
      tuples.push_back(RepTuple{v.id, z.id, static_cast<std::int32_t>(j), *d});
    }
  }
  ctx.charge_work(work);
  ctx.send(kRepTuples, tuples);
}

/// Stage 2 (Algorithm 6): pairing machines join b-tuples with cs-tuples;
/// sampled low-degree machines compute exact distances and request
/// extensions.
void classify_body(mpc::StageContext<ClassifyInput>& ctx, const ClassifyParams& p) {
  std::uint64_t work = 0;
  if (const auto* pairing = std::get_if<PairingInput>(&ctx.in())) {
    // Pairing machine: join b-tuples with cs-tuples on the rep.
    std::unordered_map<std::int32_t, const std::vector<CsWindow>*> cs_by_rep;
    for (const RepCsList& list : pairing->reps) {
      cs_by_rep.emplace(list.rep, &list.entries);
    }
    std::vector<seq::Tuple> tuples;
    for (const BlockObsList& info : pairing->blocks) {
      // Keep the best estimate per window.  Sorted sweep (not a hash
      // map): the tuple stream feeds metered mailboxes, so its byte
      // order must not depend on the standard library's hash layout.
      std::vector<std::pair<std::uint64_t, std::int64_t>> bounds;
      for (const BlockObservation& o : info.obs) {
        const auto it = cs_by_rep.find(o.rep);
        if (it == cs_by_rep.end()) continue;
        for (const CsWindow& e : *it->second) {
          ++work;
          const std::int64_t bound = o.distance + e.distance;
          const std::uint64_t key =
              (static_cast<std::uint64_t>(e.begin) << 32U) |
              static_cast<std::uint64_t>(e.end - e.begin);
          bounds.emplace_back(key, bound);
        }
      }
      std::sort(bounds.begin(), bounds.end());
      for (std::size_t i = 0; i < bounds.size(); ++i) {
        if (i > 0 && bounds[i].first == bounds[i - 1].first) continue;
        const auto [key, bound] = bounds[i];  // min: sorted pair order
        const auto begin = static_cast<std::int64_t>(key >> 32U);
        const auto len = static_cast<std::int64_t>(key & 0xffffffffULL);
        tuples.push_back(
            seq::Tuple{info.begin, info.end, begin, begin + len, bound});
      }
    }
    ctx.charge_work(work + 1);
    ctx.send(kTuples, tuples);
  } else {
    // Sampled low-degree block: exact distances + extension requests.
    const SampledInput& in = std::get<SampledInput>(ctx.in());
    const SymView block_view(in.block);
    const SymView chunk_view(in.chunk);
    const auto block_len = static_cast<std::int64_t>(in.block.size());
    const std::int64_t block_end = in.block_begin + block_len;

    // Largest threshold below the block's coverage level: candidates
    // this close get extended (the block is low degree there).
    const std::int64_t extend_threshold = in.jb == 0 ? -1 : p.taus[in.jb - 1];

    std::vector<seq::Tuple> tuples;
    std::vector<std::pair<std::int64_t, Interval>> extendable;  // (e, window)
    for (const std::int64_t sp : in.starts) {
      for (const std::int64_t ep : candidate_ends(sp, block_len, p.geo)) {
        const SymView window =
            subview(chunk_view, {sp - in.chunk_begin, ep - in.chunk_begin});
        // Distances beyond the guess cap cannot enter an accepted
        // solution; censor them (keeps per-pair cost O(B·cap)).
        const auto limit = std::min<std::int64_t>(
            p.cap,
            std::max<std::int64_t>(
                1, block_len + static_cast<std::int64_t>(window.size())));
        const auto e =
            seq::edit_distance_bounded_fast(block_view, window, limit, &work);
        if (!e.has_value()) continue;
        tuples.push_back(seq::Tuple{in.block_begin, block_end, sp, ep, *e});
        if (*e <= extend_threshold) extendable.emplace_back(*e, Interval{sp, ep});
      }
    }
    // Low-degree nodes have at most n^alpha close candidates; cap.
    std::sort(extendable.begin(), extendable.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    if (extendable.size() > p.max_extend) extendable.resize(p.max_extend);

    // Extension requests for every sibling block in the same larger
    // block (the machine derives sibling intervals from n, B, B').
    std::vector<ExtendRequest> requests;
    const std::int64_t lb = in.block_begin / p.larger_block;
    for (std::int64_t pos = 0; pos < p.n; pos += p.block) {
      if (pos / p.larger_block != lb || pos == in.block_begin) continue;
      const std::int64_t sib_end = std::min(p.n, pos + p.block);
      for (const auto& [e, win] : extendable) {
        const std::int64_t wb =
            std::clamp<std::int64_t>(win.begin + (pos - in.block_begin), 0, p.n_bar);
        const std::int64_t we = std::clamp<std::int64_t>(
            win.end + (sib_end - block_end), wb, p.n_bar);
        requests.push_back(ExtendRequest{pos, sib_end, wb, we});
      }
    }

    ctx.charge_work(work + 1);
    ctx.charge_scratch((in.block.size() + in.chunk.size()) * sizeof(Symbol));
    ctx.send(kTuples, tuples);
    ctx.send(kExtendRequests, requests);
  }
}

/// Stage 3 (Algorithm 7): evaluate extension requests exactly, censored at
/// `cap`.
void extend_body(mpc::StageContext<ExtendBatch>& ctx, const std::int64_t& cap) {
  std::uint64_t work = 0;
  std::vector<seq::Tuple> tuples;
  for (const ExtendJob& job : ctx.in().jobs) {
    const auto limit = std::min<std::int64_t>(
        cap, std::max<std::int64_t>(
                 1, static_cast<std::int64_t>(job.block.size() +
                                              job.window.size())));
    const auto e = seq::edit_distance_bounded_fast(SymView(job.block),
                                              SymView(job.window), limit, &work);
    if (!e.has_value()) continue;
    tuples.push_back(seq::Tuple{job.block_begin, job.block_end,
                                job.window_begin, job.window_end, *e});
  }
  ctx.charge_work(work + 1);
  ctx.send(kTuples, tuples);
}

const mpc::Stage<RepVsNodes, RepParams> kRepresentativesStage{
    "edit:large:representatives", &representatives_body};
const mpc::Stage<ClassifyInput, ClassifyParams> kClassifyStage{
    "edit:large:classify", &classify_body};
const mpc::Stage<ExtendBatch, std::int64_t> kExtendStage{"edit:large:extend",
                                                         &extend_body};
const mpc::Stage<mpc::TupleInbox, mpc::CombineParams> kCombineStage{
    "edit:large:combine", &mpc::combine_body};

mpc::Plan large_plan() {
  return mpc::Plan{
      "edit:large",
      {
          {"edit:large:representatives", "RepVsNodes (sharded input)", "rep-tuples"},
          {"edit:large:classify", "PairingInput | SampledInput",
           "tuples, extend-requests"},
          {"edit:large:extend", "ExtendBatch", "tuples"},
          {"edit:large:combine", "Inbox<tuples> (classify + extend)", "answer"},
      }};
}

}  // namespace

LargeDistanceResult run_large_distance(SymView s, SymView t,
                                       const LargeDistanceParams& params) {
  MPCSD_EXPECTS(params.x > 0.0 && params.x < 1.0);
  MPCSD_EXPECTS(params.eps_prime > 0.0);
  MPCSD_EXPECTS(params.delta_guess > 0);

  LargeDistanceResult result;
  const auto n = static_cast<std::int64_t>(s.size());
  const auto n_bar = static_cast<std::int64_t>(t.size());
  if (n == 0 || n_bar == 0) {
    result.distance = std::max(n, n_bar);
    return result;
  }

  const double x = params.x;
  const double y = params.y_scale * x;
  const std::int64_t block = std::max<std::int64_t>(1, ipow_ceil(n, 1.0 - y));
  const std::int64_t larger_block =
      std::max(block, ipow_ceil(n, 1.0 - params.y_prime_scale * x));

  CandidateGeometry geo;
  geo.eps_prime = params.eps_prime;
  geo.n = n;
  geo.n_bar = n_bar;
  geo.block_size = block;
  geo.delta_guess = params.delta_guess;

  // G_tau nodes use canonical window lengths (one node per start); the
  // sampled low-degree path evaluates the full length-variant candidates.
  CandidateGeometry node_geo = geo;
  node_geo.canonical_ends = true;
  const NodeUniverse universe = build_universe(node_geo);
  const auto nb = universe.blocks.size();

  // Distances beyond the cap cannot participate in a solution of size
  // ~delta_guess, so all bounded computations stop there.
  const std::int64_t cap =
      std::max<std::int64_t>(params.distance_cap_factor * params.delta_guess, 4);
  const auto taus = tau_grid(cap, params.eps_prime);

  mpc::ClusterConfig config{params};
  config.memory_limit_bytes = params.memory_cap_bytes;
  config.seed = params.seed;
  mpc::Driver driver(large_plan(), config);
  obs::Span pipeline_span(params.recorder, "edit:large", "pipeline");
  pipeline_span.arg("guess", static_cast<double>(params.delta_guess));

  // ------------------------------------------------------------------
  // Stage 1 (Algorithm 5): representatives vs all nodes.
  // ------------------------------------------------------------------
  const double alpha_n = std::pow(static_cast<double>(n), params.alpha_scale * x);
  const double rho = std::min(
      1.0, params.rep_constant * std::log(static_cast<double>(std::max<std::int64_t>(n, 3))) /
               std::max(1.0, alpha_n));
  Pcg32 rep_rng = derive_stream(params.seed, 1001);
  std::vector<std::int32_t> reps;
  for (std::size_t v = 0; v < universe.node_count(); ++v) {
    if (rep_rng.bernoulli(rho)) reps.push_back(static_cast<std::int32_t>(v));
  }
  // At toy scales n^alpha is O(1) and the rate saturates; cap the
  // representative set (a uniform subsample) so round-1 work stays sane.
  if (params.max_representatives > 0 && reps.size() > params.max_representatives) {
    for (std::size_t i = 0; i < params.max_representatives; ++i) {
      const std::size_t j =
          i + rep_rng.below(static_cast<std::uint32_t>(reps.size() - i));
      std::swap(reps[i], reps[j]);
    }
    reps.resize(params.max_representatives);
    std::sort(reps.begin(), reps.end());
  }
  result.representative_count = reps.size();

  // Batch (rep group) x (node group) so that each machine holds at most
  // ~memory_cap worth of strings on each side.
  const std::int64_t max_node_len = [&] {
    std::int64_t m = block;
    for (const Interval& c : universe.cs) m = std::max(m, c.length());
    return m;
  }();
  const auto bytes_per_node = static_cast<std::uint64_t>(max_node_len) * sizeof(Symbol) + 64;
  const std::size_t per_side = static_cast<std::size_t>(std::max<std::uint64_t>(
      1, params.memory_cap_bytes / (2 * bytes_per_node)));

  std::vector<RepVsNodes> round1_tasks;
  for (std::size_t rb = 0; rb < reps.size(); rb += per_side) {
    const std::size_t rhi = std::min(reps.size(), rb + per_side);
    for (std::size_t vb = 0; vb < universe.node_count(); vb += per_side) {
      const std::size_t vhi = std::min(universe.node_count(), vb + per_side);
      RepVsNodes task;
      task.reps.reserve(rhi - rb);
      for (std::size_t i = rb; i < rhi; ++i) {
        const auto z = static_cast<std::size_t>(reps[i]);
        task.reps.push_back(IdSyms{
            reps[i],
            copy_syms(universe.is_block(z) ? s : t, universe.node_interval(z))});
      }
      task.nodes.reserve(vhi - vb);
      for (std::size_t v = vb; v < vhi; ++v) {
        task.nodes.push_back(IdSyms{
            static_cast<std::int32_t>(v),
            copy_syms(universe.is_block(v) ? s : t, universe.node_interval(v))});
      }
      round1_tasks.push_back(std::move(task));
    }
  }

  const auto mail1 =
      driver.run(kRepresentativesStage, mpc::Driver::shard(round1_tasks),
                 RepParams{taus, nb});

  // Driver-side routing: index RepTuples by block and by representative.
  std::vector<std::vector<BlockObservation>> btups(nb);
  std::unordered_map<std::int32_t, std::vector<CsObservation>> cstups;
  for (const std::vector<RepTuple>& batch : driver.receive(mail1, kRepTuples)) {
    for (const RepTuple& tu : batch) {
      if (static_cast<std::size_t>(tu.node) < nb) {
        btups[static_cast<std::size_t>(tu.node)].push_back(
            BlockObservation{tu.rep, tu.rep_distance});
      } else {
        cstups[tu.rep].push_back(CsObservation{
            static_cast<std::int32_t>(static_cast<std::size_t>(tu.node) - nb),
            tu.rep_distance});
      }
    }
  }

  // jb_min[b]: smallest tau index at which block b is covered by some
  // representative (taus.size() if never).  Blocks are low degree below it.
  std::vector<std::size_t> jb_min(nb, taus.size());
  for (std::size_t b = 0; b < nb; ++b) {
    for (const BlockObservation& o : btups[b]) {
      jb_min[b] = std::min(jb_min[b], min_tau_index(taus, o.distance));
    }
  }

  // ------------------------------------------------------------------
  // Stage 2 (Algorithm 6): pairing machines + sampled low-degree machines.
  // ------------------------------------------------------------------
  // Common-seed sampling of low-degree blocks: p = C/eps'^2 * ln^2 n /
  // n^{(y-y') - (1-delta)}.
  const double logn = std::log(static_cast<double>(std::max<std::int64_t>(n, 3)));
  const double denom = std::pow(static_cast<double>(n),
                                (params.y_scale - params.y_prime_scale) * x) *
                       (static_cast<double>(params.delta_guess) / static_cast<double>(n));
  const double p_low = std::min(
      1.0, params.sample_constant * logn * logn /
               (params.eps_prime * params.eps_prime * std::max(denom, 1e-12)));

  const std::size_t max_extend =
      params.max_extend_per_block > 0
          ? params.max_extend_per_block
          : static_cast<std::size_t>(std::max(1.0, alpha_n));

  const std::size_t blocks_per_pairing_machine = static_cast<std::size_t>(
      std::max<std::int64_t>(1, ipow(n, (params.y_scale - 1.0) * x)));

  std::vector<ClassifyInput> round2_tasks;
  // (a) pairing machines.
  for (std::size_t b0 = 0; b0 < nb; b0 += blocks_per_pairing_machine) {
    const std::size_t b1 = std::min(nb, b0 + blocks_per_pairing_machine);
    PairingInput input;
    input.blocks.reserve(b1 - b0);
    // Sorted dedupe (not a hash set): a bucket-order sweep would shard the
    // rep lists in hash order and shift the golden trace across libraries.
    std::vector<std::int32_t> reps_needed;
    for (std::size_t b = b0; b < b1; ++b) {
      input.blocks.push_back(BlockObsList{universe.blocks[b].begin,
                                          universe.blocks[b].end, btups[b]});
      for (const BlockObservation& o : btups[b]) reps_needed.push_back(o.rep);
    }
    std::sort(reps_needed.begin(), reps_needed.end());
    reps_needed.erase(std::unique(reps_needed.begin(), reps_needed.end()),
                      reps_needed.end());
    input.reps.reserve(reps_needed.size());
    for (const std::int32_t z : reps_needed) {
      RepCsList list;
      list.rep = z;
      const auto it = cstups.find(z);
      if (it != cstups.end()) {
        list.entries.reserve(it->second.size());
        for (const CsObservation& o : it->second) {
          const Interval& win = universe.cs[static_cast<std::size_t>(o.cs)];
          list.entries.push_back(CsWindow{win.begin, win.end, o.distance});
        }
      }
      input.reps.push_back(std::move(list));
    }
    round2_tasks.emplace_back(std::move(input));
  }

  // (b) sampled low-degree blocks, one machine per (block, start batch).
  const std::int64_t max_len = std::min(
      static_cast<std::int64_t>(std::ceil(static_cast<double>(block) / params.eps_prime)),
      block + params.delta_guess);
  std::size_t sampled_blocks = 0;
  for (std::size_t b = 0; b < nb; ++b) {
    Pcg32 coin = derive_stream(params.seed, 2001, b);
    if (!coin.bernoulli(p_low)) continue;
    ++sampled_blocks;
    const Interval& blk = universe.blocks[b];
    const auto starts = candidate_starts(blk.begin, geo);
    std::size_t i = 0;
    while (i < starts.size()) {
      std::size_t j = i;
      while (j + 1 < starts.size() && starts[j + 1] - starts[i] <= block) ++j;
      const std::int64_t chunk_begin = starts[i];
      const std::int64_t chunk_end = std::min(n_bar, starts[j] + max_len);
      SampledInput input;
      input.block_begin = blk.begin;
      input.block = copy_syms(s, blk);
      input.jb = jb_min[b];
      input.starts.assign(starts.begin() + static_cast<std::ptrdiff_t>(i),
                          starts.begin() + static_cast<std::ptrdiff_t>(j + 1));
      input.chunk_begin = chunk_begin;
      input.chunk.assign(t.begin() + chunk_begin, t.begin() + chunk_end);
      round2_tasks.emplace_back(std::move(input));
      i = j + 1;
    }
  }
  result.sampled_blocks = sampled_blocks;

  const auto mail2 = driver.run(
      kClassifyStage, mpc::Driver::shard(round2_tasks),
      ClassifyParams{taus, geo, cap, max_extend, block, larger_block, n, n_bar});

  // Driver: dedupe extension requests and pack round-3 machines.
  std::vector<ExtendRequest> requests;
  {
    std::unordered_set<std::uint64_t> seen;
    for (const auto& batch : driver.receive(mail2, kExtendRequests)) {
      for (const ExtendRequest& req : batch) {
        const std::uint64_t key =
            splitmix64(static_cast<std::uint64_t>(req.block_begin) * 0x9e3779b9U +
                       static_cast<std::uint64_t>(req.window_begin)) ^
            splitmix64(static_cast<std::uint64_t>(req.window_end) * 31 +
                       static_cast<std::uint64_t>(req.block_end));
        if (seen.insert(key).second) requests.push_back(req);
      }
    }
  }
  result.extension_requests = requests.size();

  std::vector<ExtendBatch> round3_tasks;
  {
    std::size_t i = 0;
    while (i < requests.size()) {
      ExtendBatch task;
      std::uint64_t bytes = 0;
      while (i < requests.size()) {
        const ExtendRequest& req = requests[i];
        const auto req_bytes = static_cast<std::uint64_t>(
            (req.block_end - req.block_begin) + (req.window_end - req.window_begin)) *
                sizeof(Symbol) + 64;
        if (!task.jobs.empty() && bytes + req_bytes > params.memory_cap_bytes / 2) break;
        task.jobs.push_back(ExtendJob{
            req.block_begin, req.block_end, req.window_begin, req.window_end,
            copy_syms(s, {req.block_begin, req.block_end}),
            copy_syms(t, {req.window_begin, req.window_end})});
        bytes += req_bytes;
        ++i;
      }
      round3_tasks.push_back(std::move(task));
    }
    if (round3_tasks.empty()) round3_tasks.emplace_back();
  }

  // ------------------------------------------------------------------
  // Stage 3 (Algorithm 7): evaluate extension requests exactly.
  // ------------------------------------------------------------------
  const auto mail3 =
      driver.run(kExtendStage, mpc::Driver::shard(round3_tasks), cap);

  // ------------------------------------------------------------------
  // Stage 4: combine everything (round-2 and round-3 tuple payloads are
  // chained in place; nothing is concatenated).
  // ------------------------------------------------------------------
  ByteChain all_tuples = mpc::gather_view(mail2, kTuples.mailbox);
  all_tuples.add(mpc::gather_view(mail3, kTuples.mailbox));
  const auto mail4 = driver.run_views(
      kCombineStage, {all_tuples},
      mpc::CombineParams{{{kAnswer.mailbox, n, n_bar}}, seq::GapCost::kSum});
  driver.finish();

  const auto answers = driver.receive(mail4, kAnswer);
  MPCSD_ENSURES(answers.size() == 1);
  result.distance = answers.front();
  result.trace = driver.take_trace();
  MPCSD_ENSURES(result.trace.round_count() == 4);
  return result;
}

}  // namespace mpcsd::edit_mpc
