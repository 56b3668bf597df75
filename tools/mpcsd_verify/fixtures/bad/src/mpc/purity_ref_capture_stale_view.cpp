// Fixture: a machine body that keeps its inbox view in a by-reference
// capture, and a later round's body that reads the stale view — it
// aliases mail the cluster may already have recycled.
#include <cstddef>
#include <vector>

namespace mpc {

void stale_inbox_view(Cluster& cluster, const std::vector<Bytes>& inputs) {
  ByteSpan stashed;
  cluster.run_round("stash", inputs, [&](MachineContext& ctx) {  // mpcsd-expect: purity-ref-capture
    stashed = ctx.input().parts()[0];
  });
  std::byte seen{};
  cluster.run_round("stale-read", inputs, [&](MachineContext& ctx) {  // mpcsd-expect: purity-ref-capture
    (void)ctx;
    seen = stashed[0];
  });
}

}  // namespace mpc
