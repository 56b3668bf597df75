// The combine round's machine body, shared by every pipeline that ends in
// one combine machine per query: Algorithm 2 (Ulam, kMax gaps) and
// Algorithm 4 (edit distance, kSum gaps).  Its metering is stated here
// once: the DP's work, plus scratch for two copies of the tuples (the
// decoded inbox and the solver's working order).  Every combine stage
// runs the one capture-free `combine_body`; its params name each combine
// machine's query.
//
// Header-only: the simulator library itself never runs the combine DP, so
// it does not link the sequential kernels; the pipelines that include this
// header do.
#pragma once

#include <cstdint>
#include <tuple>
#include <utility>
#include <vector>

#include "mpc/plan.hpp"
#include "seq/combine.hpp"

namespace mpcsd::mpc {

/// A combine machine's input: every tuple batch sent to its mailbox, in
/// sender order, as one array.
struct TupleInbox {
  std::vector<seq::Tuple> tuples;
};

/// Reads the routed mail in place and copies the tuples once, into the
/// array (`seq::read_all_tuples`).
template <>
struct Codec<TupleInbox> {
  // Inboxes are produced by mail routing, never encoded by a sender.
  static void encode(ByteWriter&, const TupleInbox&) = delete;
  static TupleInbox decode(ChainReader& r) { return {seq::read_all_tuples(r)}; }
};

/// One combine machine's query: the mailbox its answer goes to and the
/// lengths of the pair.
struct CombineTarget {
  std::uint32_t mailbox = 0;
  std::int64_t n = 0;
  std::int64_t n_bar = 0;
};

/// Round params of a combine stage: one target per combine machine, by
/// machine id, and the gap charging.
struct CombineParams {
  std::vector<CombineTarget> targets;
  seq::GapCost gap = seq::GapCost::kSum;

  static constexpr auto fields() {
    return std::make_tuple(&CombineParams::targets, &CombineParams::gap);
  }
};

/// The combine stage body: runs `seq::combine_tuples` on the inbox's tuples
/// (moved out of the context), charges the round's work and scratch and
/// sends the combined distance to the machine's target mailbox.
inline void combine_body(StageContext<TupleInbox>& ctx,
                         const CombineParams& params) {
  const CombineTarget& target = params.targets.at(ctx.machine_id());
  std::vector<seq::Tuple> tuples = std::move(ctx.in().tuples);
  const auto count = static_cast<std::uint64_t>(tuples.size());
  seq::CombineOptions options;
  options.gap = params.gap;
  std::uint64_t work = 0;
  const std::int64_t answer =
      seq::combine_tuples(std::move(tuples), target.n, target.n_bar, options, &work);
  ctx.charge_work(work);
  ctx.charge_scratch(count * sizeof(seq::Tuple) * 2);
  ctx.send(Channel<std::int64_t>(target.mailbox), answer);
}

}  // namespace mpcsd::mpc
