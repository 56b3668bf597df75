// Fixture: direct clock read inside a machine body.  Wall time is host
// observability; inside a body it leaks scheduling order into emitted data.
#include <chrono>
#include <cstdint>
#include <vector>

namespace mpc {

void timed_body(int machines) {
  run_machines(machines, [](MachineContext& ctx) {
    const auto t0 = std::chrono::steady_clock::now();  // mpcsd-expect: det-wall-clock
    ctx.charge_work(static_cast<std::uint64_t>(t0.time_since_epoch().count() & 1));
  });
}

}  // namespace mpc
