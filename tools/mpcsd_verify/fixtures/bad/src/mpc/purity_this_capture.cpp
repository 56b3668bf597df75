// Fixture: machine body capturing `this` — host object state would be
// silently divergent under the process backend.
#include <cstdint>
#include <vector>

namespace mpc {

class Solver {
 public:
  void run(int machines) {
    run_machines(machines, [this](MachineContext& ctx) {  // mpcsd-expect: purity-this-capture
      seen_ += static_cast<std::uint64_t>(ctx.machine_id);
    });
  }

 private:
  std::uint64_t seen_ = 0;
};

}  // namespace mpc
