// The transport layer: every byte that crosses a machine boundary.
//
// The data plane is three layers, each defined exactly once:
//
//   payload codecs (codec.hpp)      typed values <-> payload bytes
//   records + frames (this file)    envelopes, machine results, round
//                                   commands, barriers, framed messages
//   byte streams (common/io.hpp)    EINTR-safe fd reads/writes
//
// Before this layer existed the middle tier was smeared across three
// ad-hoc copies: the in-process router moved `Envelope`s directly, the
// process backend hand-rolled the same record layout into its memfd
// arenas plus a bespoke 17-byte pipe barrier.  Now every backend speaks the
// same records:
//
//   * `Envelope`            one routed message (the unit of communication
//                           metering) — moved here from cluster.hpp, since
//                           it *is* the transport's data unit;
//   * machine-result record the (report, outbox) pair one machine
//                           produced;
//   * `RoundCommand`        one round for one worker process: body id,
//                           round, seed, machines, inputs, params;
//   * `BarrierRecord`       the end-of-round worker status (the former
//                           17-byte pipe barrier, now a frame payload).
//
// Frames wrap records for fd-based transports: a fixed 14-byte header
// (magic, version, tag, payload length — all length-prefixed, validated
// strictly on decode) followed by the payload.  `FrameStream` moves whole
// frames over an fd; `TransportCounters` meters them uniformly so the obs
// spine can report frames/bytes/flushes/barrier-waits/forks per backend.
//
// Determinism contract: records are pure functions of machine outputs —
// byte-identical across {thread, process} backends and worker counts,
// pinned by test_determinism.cpp and the golden traces.
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "mpc/body.hpp"
#include "mpc/stats.hpp"

namespace mpcsd::mpc {

struct RoundWork;  // backend.hpp

/// One routed message: destination mailbox and its (owned) payload.
struct Envelope {
  std::uint32_t dest = 0;
  Bytes payload;
};

// --- frame protocol ---------------------------------------------------

/// Malformed frame or record: bad magic/version/tag, oversized or
/// truncated payload.  Distinct from ContractViolation so transports can
/// separate "peer speaks garbage" from "library bug".
class FrameError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Message kinds carried on a frame stream.  kBarrier's byte stays 4 so the
/// committed fuzz corpus keeps decoding; every other tag byte is rejected.
enum class FrameTag : std::uint8_t {
  kBarrier = 4,  ///< worker -> host: end-of-round BarrierRecord
  kRound = 5,    ///< host -> worker: one round's RoundCommand
};

/// "MPCF" little-endian; the first 4 bytes of every frame.
inline constexpr std::uint32_t kFrameMagic = 0x4643504Du;
inline constexpr std::uint8_t kFrameVersion = 1;
/// magic u32 + version u8 + tag u8 + payload length u64.
inline constexpr std::size_t kFrameHeaderBytes = 4 + 1 + 1 + 8;
/// Hard cap on one frame's payload; a length past this is rejected before
/// any allocation (a corrupt peer cannot OOM the coordinator).
inline constexpr std::uint64_t kMaxFramePayload = std::uint64_t{1} << 30;

struct FrameHeader {
  FrameTag tag = FrameTag::kBarrier;
  std::uint64_t payload_bytes = 0;
};

struct Frame {
  FrameTag tag = FrameTag::kBarrier;
  Bytes payload;
};

/// Appends the 14-byte header for (tag, payload_bytes) to `w`.
void encode_frame_header(ByteWriter& w, FrameTag tag,
                         std::uint64_t payload_bytes);

/// Validates and decodes a header from the first `size` bytes of `data`.
/// Throws FrameError on: truncated header (size < kFrameHeaderBytes), bad
/// magic, unsupported version, unknown tag, payload length past
/// kMaxFramePayload.
[[nodiscard]] FrameHeader decode_frame_header(const std::byte* data,
                                              std::size_t size);

// --- per-transport metering -------------------------------------------

/// Uniform counters every transport maintains; surfaced on the obs spine
/// as `transport.*` after each round.  What a "frame" is depends on the
/// transport (see docs/BACKENDS.md): an envelope handed to the in-process
/// router, one published arena or barrier frame for shm.
struct TransportCounters {
  std::uint64_t frames_sent = 0;
  std::uint64_t frames_received = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_received = 0;
  std::uint64_t flushes = 0;        ///< kernel/router handoff points
  std::uint64_t barrier_waits = 0;  ///< end-of-round barriers awaited
  std::uint64_t forks = 0;          ///< worker processes started
};

/// A transport owns the counters for one backend's boundary crossings,
/// under the wire name the obs spine reports ("inproc" for the in-process
/// router, "shm" for the process backend's shared-memory arenas).
class Transport {
 public:
  explicit Transport(const char* name) noexcept : name_(name) {}
  [[nodiscard]] const char* name() const noexcept { return name_; }
  [[nodiscard]] const TransportCounters& counters() const noexcept {
    return counters_;
  }
  [[nodiscard]] TransportCounters& counters() noexcept { return counters_; }

 private:
  const char* name_;
  TransportCounters counters_;
};

/// Framed messages over an fd (the process backend's worker sockets).  Does
/// not own the fd.  `counters` (optional) meters every frame moved.
class FrameStream {
 public:
  explicit FrameStream(int fd, TransportCounters* counters = nullptr) noexcept
      : fd_(fd), counters_(counters) {}

  /// Sends one frame (header + payload).  False on a write failure.
  [[nodiscard]] bool send(FrameTag tag, ByteSpan payload);

  /// Receives one frame.  nullopt when the peer closed before a header
  /// arrived (clean EOF); FrameError on a malformed header or a payload
  /// cut short (the peer died mid-message).
  [[nodiscard]] std::optional<Frame> recv();

 private:
  int fd_;
  TransportCounters* counters_;
};

// --- wire records ------------------------------------------------------

/// Worker status carried in a BarrierRecord.
inline constexpr std::uint8_t kWorkerOk = 0;
inline constexpr std::uint8_t kWorkerBodyThrew = 1;
inline constexpr std::uint8_t kWorkerPublishFailed = 2;

/// End-of-round worker report: status byte, result byte count, body wall
/// seconds.  Exactly the process backend's original 17-byte pipe barrier
/// (u8 + u64 + double, packed by ByteWriter — no struct padding).
struct BarrierRecord {
  std::uint8_t status = kWorkerOk;
  std::uint64_t result_bytes = 0;
  double body_seconds = 0.0;
};
inline constexpr std::size_t kBarrierRecordBytes = 1 + 8 + 8;

void encode_barrier(ByteWriter& w, const BarrierRecord& record);
/// Throws FrameError on an unknown status byte (reader underflow raises
/// ContractViolation as everywhere else).
[[nodiscard]] BarrierRecord decode_barrier(ByteReader& r);

/// Appends one machine-result record — the report, then the outbox as a
/// count plus (dest, payload) pairs; docs/BACKENDS.md documents it as the
/// wire contract.
void encode_machine_result(ByteWriter& w, const MachineReport& report,
                           const std::vector<Envelope>& outbox);

/// Decodes one machine-result record into the given slots (outbox is
/// cleared first; its capacity is kept).  Truncated input raises
/// ContractViolation from the reader.
void decode_machine_result(ByteReader& r, MachineReport* report,
                           std::vector<Envelope>* outbox);

/// One round for one worker process: which body, which round and seed,
/// which machines and in what chunks they are claimed, how many input
/// bytes wait in the input arena, and the round's encoded params.  The
/// payload of a kRound frame.
struct RoundCommand {
  std::uint32_t body_id = 0;
  std::uint64_t round = 0;
  std::uint64_t seed = 0;
  std::uint64_t begin = 0;  ///< first machine id
  std::uint64_t end = 0;    ///< one past the last machine id
  std::uint64_t grain = 1;  ///< machines per claimed chunk
  std::uint64_t input_bytes = 0;
  Bytes params;
};

void encode_round_command(ByteWriter& w, const RoundCommand& command);
/// Throws FrameError on an empty or inverted machine range or a zero
/// grain (reader underflow raises ContractViolation as everywhere else).
[[nodiscard]] RoundCommand decode_round_command(ByteReader& r);

// --- worker-side round execution ---------------------------------------

/// The worker side of the process backend, on one thread: claims chunks
/// of command.grain machines from `next` (shared by every worker of the
/// round) until it passes command.end, and runs each chunk's machines over
/// `inputs` (one chain per machine id).  Per chunk it appends the chunk's
/// [first, last) ids as two u64 and then one machine-result record per
/// machine to `out`.  `body` decodes command.params once.  On a body
/// exception `out` is replaced by the exception message (put_string) and
/// the returned status says kWorkerBodyThrew.  The returned result_bytes is
/// out's final size; body_seconds covers the body loop.
[[nodiscard]] BarrierRecord run_claimed_machines(
    const BodyEntry& body, const RoundCommand& command,
    std::atomic<std::uint64_t>& next, const std::vector<ByteChain>& inputs,
    ByteWriter& out);

/// Host-side inverse: decodes every chunk in `r` into the round arenas of
/// `work`, marking its machines in `filled`; returns the machines decoded.
/// Throws FrameError on a chunk outside the round or one already decoded.
std::size_t decode_claimed_results(ByteReader& r, const RoundWork& work,
                                   std::vector<char>& filled);

}  // namespace mpcsd::mpc
