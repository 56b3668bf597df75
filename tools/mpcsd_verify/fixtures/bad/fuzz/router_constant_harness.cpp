// Fixture: a fuzz harness hard-coding a router cost-model constant.  The
// fuzz/ allowlist covers reinterpret_cast only; kRouter* knobs stay in
// src/core/router.* here too.
#include <cstddef>
#include <cstdint>

namespace {
constexpr std::size_t kRouterProbeCap = 64;  // mpcsd-expect: conf-router-constant
}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data, std::size_t size) {
  return size > kRouterProbeCap && data[0] == 0 ? 1 : 0;  // mpcsd-expect: conf-router-constant
}
