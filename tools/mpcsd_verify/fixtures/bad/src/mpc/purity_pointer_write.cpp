// Fixture: machine body writing through a by-value captured pointer.
// The capture itself is a copy, but the write lands in host memory — inert
// under process isolation, a data race under threads.
#include <cstdint>
#include <vector>

namespace mpc {

void pointer_write(int machines, std::vector<std::uint64_t>* sink) {
  run_machines(machines, [sink](MachineContext& ctx) {
    sink->push_back(static_cast<std::uint64_t>(ctx.machine_id));  // mpcsd-expect: purity-pointer-write
  });
}

}  // namespace mpc
