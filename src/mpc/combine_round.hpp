// The combine round's machine body, shared by every pipeline that ends in
// one combine machine per query: Algorithm 2 (Ulam, kMax gaps) and
// Algorithm 4 (edit distance, kSum gaps).  Its metering is stated here
// once: the DP's work, plus scratch for two copies of the tuples (the
// flattened inbox and the solver's working order).
//
// Header-only: the simulator library itself never runs the combine DP, so
// it does not link the sequential kernels; the pipelines that include this
// header do.
#pragma once

#include <cstdint>
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

}  // namespace mpcsd::mpc
