// Fixture: mutable lambda in simulator code (conf-mutable-lambda scope).
// Mutable captured state is cross-call sharing the machine model forbids.
#include <cstdint>
#include <vector>

namespace mpc {

std::uint64_t sum_with_mutable(const std::vector<std::uint64_t>& xs) {
  std::uint64_t total = 0;
  auto acc = [total](std::uint64_t x) mutable {  // mpcsd-expect: conf-mutable-lambda
    total += x;
    return total;
  };
  for (const std::uint64_t x : xs) total = acc(x);
  return total;
}

}  // namespace mpc
