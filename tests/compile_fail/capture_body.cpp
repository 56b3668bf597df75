// Negative-compile check: a round body that captures host state must not
// compile (mpc/body.hpp).  As written this TU is valid, with capture-free
// bodies; MPCSD_CAPTURE_RUN_ROUND swaps in a `[&]` lambda handed to
// Cluster::run_round and MPCSD_CAPTURE_STAGE one used as an mpc::Stage
// body.  tests/CMakeLists.txt builds the valid TU with the rest of the tree
// and each capturing variant in the `capture_body_rejected` ctest, which
// passes only if both variants fail to compile.
#include <cstdint>
#include <vector>

#include "mpc/plan.hpp"

namespace mpcsd::mpc {

void capture_free_bodies(Cluster& cluster, const std::vector<Bytes>& inputs) {
  std::uint64_t host_state = 0;
#if defined(MPCSD_CAPTURE_RUN_ROUND)
  cluster.run_round("captures", inputs, [&](MachineContext& ctx) {
    host_state += ctx.machine_id();
  });
#else
  cluster.run_round(
      "params", inputs,
      [](MachineContext& ctx, const std::uint64_t& work) { ctx.charge_work(work); },
      host_state);
#endif
#if defined(MPCSD_CAPTURE_STAGE)
  const Stage<std::uint64_t> stage{
      "captures", [&](StageContext<std::uint64_t>& ctx) { host_state += ctx.in(); }};
#else
  const Stage<std::uint64_t, std::uint64_t> stage{
      "params", [](StageContext<std::uint64_t>& ctx, const std::uint64_t& bias) {
        ctx.charge_work(ctx.in() + bias);
      }};
#endif
  (void)stage;
}

}  // namespace mpcsd::mpc
