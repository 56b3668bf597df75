// Fixture: the same cast, one byte past the end of the inbox fragment —
// the write lands in whatever storage the router placed next to it.
#include <cstddef>
#include <vector>

namespace mpc {

void overflow_inbox(Cluster& cluster, const std::vector<Bytes>& inputs) {
  cluster.run_round("overflower", inputs, [](MachineContext& ctx) {
    if (ctx.machine_id() == 0) {
      const ByteSpan part = ctx.input().parts()[0];
      const_cast<std::byte*>(part.data())[part.size()] = std::byte{0xFF};  // mpcsd-expect: conf-const-cast
    }
  });
}

}  // namespace mpc
