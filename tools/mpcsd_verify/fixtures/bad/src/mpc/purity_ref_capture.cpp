// Fixture: machine bodies that capture host state by reference.
#include <cstdint>
#include <vector>

namespace mpc {

void blanket_ref_capture(int machines) {
  std::vector<std::uint64_t> totals(static_cast<std::size_t>(machines));
  run_machines(machines, [&](MachineContext& ctx) {  // mpcsd-expect: purity-ref-capture
    totals[static_cast<std::size_t>(ctx.machine_id)] += 1;
  });
}

void named_ref_capture(int machines) {
  std::uint64_t accumulator = 0;
  run_machines(machines, [&accumulator](MachineContext& ctx) {  // mpcsd-expect: purity-ref-capture
    accumulator += static_cast<std::uint64_t>(ctx.machine_id);
  });
}

}  // namespace mpc
