// Clean fixture: fuzz harnesses may reinterpret_cast the raw fuzzer input
// (the fuzz/ allowlist), e.g. to view it as chars.  Must produce no
// findings.
#include <cstddef>
#include <cstdint>
#include <string_view>

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data, std::size_t size) {
  const std::string_view text(reinterpret_cast<const char*>(data), size);
  return text.empty() ? 0 : 1;
}
