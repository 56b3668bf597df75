#include "mpc/backend_thread.hpp"

#include "common/rng.hpp"
#include "mpc/cluster.hpp"

namespace mpcsd::mpc {

void ThreadBackend::execute(const RoundWork& work) {
  const BodyEntry& body = work.body.entry;
  const BodyEntry::Params params = body.decode(work.params);
  pool_->parallel_for(
      work.machines,
      [&](std::size_t i) {
        (*work.outboxes)[i].clear();
        MachineContext ctx(i, &(*work.inputs)[i],
                           derive_stream(work.seed, work.round, i),
                           &(*work.outboxes)[i]);
        ctx.report_.input_bytes = (*work.inputs)[i].total_bytes();
        body.call(body.fn, ctx, params.get());
        (*work.reports)[i] = ctx.report_;
      },
      work.grain);

  // Transport accounting after the join (reads only; results untouched):
  // in-process, every envelope is "sent" and "received" in the same move,
  // and the parallel_for join is the round barrier.
  TransportCounters& c = transport_.counters();
  std::uint64_t envelopes = 0;
  std::uint64_t bytes = 0;
  for (std::size_t i = 0; i < work.machines; ++i) {
    envelopes += (*work.outboxes)[i].size();
    bytes += (*work.reports)[i].output_bytes;
  }
  c.frames_sent += envelopes;
  c.frames_received += envelopes;
  c.bytes_sent += bytes;
  c.bytes_received += bytes;
  ++c.flushes;
  ++c.barrier_waits;
}

}  // namespace mpcsd::mpc
