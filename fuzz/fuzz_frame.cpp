// Fuzz harness for the transport frame protocol: the 14-byte frame header
// and every wire record that crosses a process boundary (barrier and
// machine-result records) — the bytes a dying worker or a corrupt arena
// can feed the host.
//
// Invariants under arbitrary input bytes:
//   * decoding never crashes, never reads out of bounds, and never
//     allocates unboundedly — a malformed header is rejected with
//     `FrameError`, a truncated record with `FrameError` or
//     `ContractViolation`;
//   * whatever DOES decode round-trips: re-encoding yields the original
//     bytes (headers) or an equal value (records).
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "common/bytes.hpp"
#include "common/contracts.hpp"
#include "mpc/stats.hpp"
#include "mpc/transport.hpp"

namespace {

using namespace mpcsd;
using namespace mpcsd::mpc;

void check_header(const std::byte* bytes, std::size_t size) {
  try {
    const FrameHeader h = decode_frame_header(bytes, size);
    // A header that decodes must re-encode to the same 14 bytes.
    ByteWriter w;
    encode_frame_header(w, h.tag, h.payload_bytes);
    if (w.bytes().size() != kFrameHeaderBytes ||
        std::memcmp(w.bytes().data(), bytes, kFrameHeaderBytes) != 0) {
      std::abort();
    }
  } catch (const FrameError&) {
    // Malformed header rejected — the contract under test.
  }
}

void check_records(const std::byte* bytes, std::size_t size) {
  try {
    ByteReader r(bytes, size);
    const BarrierRecord b = decode_barrier(r);
    ByteWriter w;
    encode_barrier(w, b);
    ByteReader rr(w.bytes().data(), w.bytes().size());
    const BarrierRecord b2 = decode_barrier(rr);
    if (b2.status != b.status || b2.result_bytes != b.result_bytes) {
      std::abort();
    }
  } catch (const FrameError&) {
  } catch (const ContractViolation&) {
  }

  try {
    // A stream of machine-result records, the shape of a process-backend
    // arena.
    ByteReader r(bytes, size);
    MachineReport report;
    std::vector<Envelope> outbox;
    while (!r.exhausted()) {
      decode_machine_result(r, &report, &outbox);
      ByteWriter w;
      encode_machine_result(w, report, outbox);
      MachineReport report2;
      std::vector<Envelope> outbox2;
      ByteReader rr(w.bytes().data(), w.bytes().size());
      decode_machine_result(rr, &report2, &outbox2);
      if (outbox2.size() != outbox.size() || !rr.exhausted()) {
        std::abort();
      }
    }
  } catch (const FrameError&) {
  } catch (const ContractViolation&) {
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  const auto* bytes = reinterpret_cast<const std::byte*>(data);
  check_header(bytes, size);
  check_records(bytes, size);
  return 0;
}
