// Fixture: iterating an unordered container inside a machine body.
// Lookups (find / contains / count) are fine; iteration order is not.
#include <cstdint>
#include <unordered_map>
#include <vector>

namespace mpc {

void emit_histogram(int machines) {
  run_machines(machines, [](MachineContext& ctx) {
    std::unordered_map<std::uint32_t, std::uint32_t> counts;
    counts[static_cast<std::uint32_t>(ctx.machine_id)] += 1;
    std::vector<std::uint8_t> out;
    for (const auto& kv : counts) {  // mpcsd-expect: det-unordered-iter
      out.push_back(static_cast<std::uint8_t>(kv.second));
    }
    ctx.emit(0, out);
  });
}

}  // namespace mpc
