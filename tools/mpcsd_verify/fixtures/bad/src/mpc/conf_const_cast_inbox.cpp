// Fixture: a machine body that casts away its inbox view's const and
// writes into the routed mail.  On the thread backend the bytes it
// overwrites are the input another round (or the host) still reads.
#include <cstddef>
#include <vector>

namespace mpc {

void scribble_on_inbox(Cluster& cluster, const std::vector<Bytes>& inputs) {
  cluster.run_round("scribbler", inputs, [](MachineContext& ctx) {
    if (ctx.machine_id() == 1) {
      const ByteSpan part = ctx.input().parts()[0];
      const_cast<std::byte*>(part.data())[0] = std::byte{0xFF};  // mpcsd-expect: conf-const-cast
    }
  });
}

}  // namespace mpc
