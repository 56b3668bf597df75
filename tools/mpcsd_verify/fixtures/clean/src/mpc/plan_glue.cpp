// Clean fixture: the plan.hpp glue idiom — a const Stage is captured by
// reference in the MachineContext adapter lambda.  The referent is const,
// so the capture is read-only sharing and allowed.
#include <cstdint>
#include <vector>

namespace mpc {

struct StageSpec {
  std::uint32_t fanout = 1;
};

void run_spec(int machines, const StageSpec& stage) {
  run_machines(machines, [&stage](MachineContext& ctx) {
    ctx.charge_work(stage.fanout);
  });
}

}  // namespace mpc
