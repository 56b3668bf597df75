// Fixture: pointer-keyed ordered container inside a machine body —
// "ordered" by allocation address, which is not an order at all across
// runs or backends.
#include <cstdint>
#include <map>
#include <vector>

namespace mpc {

void pointer_keyed_body(int machines, std::vector<std::uint64_t>& cells) {
  const std::vector<std::uint64_t>* base = &cells;
  run_machines(machines, [base](MachineContext& ctx) {
    std::map<const std::uint64_t*, int> by_addr;  // mpcsd-expect: det-pointer-keyed
    by_addr[base->data() + ctx.machine_id] = ctx.machine_id;
    ctx.charge_work(by_addr.size());
  });
}

}  // namespace mpc
