// The combine round's machine body, shared by every pipeline that ends in
// one combine machine per query: Algorithm 2 (Ulam, kMax gaps) and
// Algorithm 4 (edit distance, kSum gaps).  Its metering is stated here
// once: the DP's work, plus scratch for two copies of the tuples (the
// flattened inbox and the solver's working order).  Every combine stage
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

/// A combine machine's input: every tuple batch sent to its mailbox.
using TupleInbox = Inbox<std::vector<seq::Tuple>>;

/// Flattens the inbox, runs `seq::combine_tuples` with `gap`, charges the
/// round's work and scratch, and returns the combined distance (the caller
/// sends it on its own channel).  `tuple_count`, when non-null, receives
/// the number of tuples combined.
inline std::int64_t combine_inbox(StageContext<TupleInbox>& ctx, std::int64_t n,
                                  std::int64_t n_bar, seq::GapCost gap,
                                  std::uint64_t* tuple_count = nullptr) {
  std::vector<seq::Tuple> tuples;
  for (auto& batch : ctx.in().messages) {
    tuples.insert(tuples.end(), batch.begin(), batch.end());
  }
  const auto count = static_cast<std::uint64_t>(tuples.size());
  seq::CombineOptions options;
  options.gap = gap;
  std::uint64_t work = 0;
  const std::int64_t answer =
      seq::combine_tuples(std::move(tuples), n, n_bar, options, &work);
  ctx.charge_work(work);
  ctx.charge_scratch(count * sizeof(seq::Tuple) * 2);
  if (tuple_count != nullptr) *tuple_count = count;
  return answer;
}

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

/// The combine stage body: sends the combined distance to the machine's
/// target mailbox and stashes the number of tuples combined.
inline void combine_body(StageContext<TupleInbox>& ctx,
                         const CombineParams& params) {
  const CombineTarget& target = params.targets.at(ctx.machine_id());
  std::uint64_t tuple_count = 0;
  ctx.send(Channel<std::int64_t>(target.mailbox),
           combine_inbox(ctx, target.n, target.n_bar, params.gap, &tuple_count));
  ctx.stash(tuple_count);
}

}  // namespace mpcsd::mpc
