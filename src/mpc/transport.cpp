#include "mpc/transport.hpp"

#include <algorithm>
#include <array>

#include "common/io.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "mpc/backend.hpp"
#include "mpc/cluster.hpp"

namespace mpcsd::mpc {

// --- frame protocol ---------------------------------------------------

void encode_frame_header(ByteWriter& w, FrameTag tag,
                         std::uint64_t payload_bytes) {
  w.put<std::uint32_t>(kFrameMagic);
  w.put<std::uint8_t>(kFrameVersion);
  w.put<std::uint8_t>(static_cast<std::uint8_t>(tag));
  w.put<std::uint64_t>(payload_bytes);
}

FrameHeader decode_frame_header(const std::byte* data, std::size_t size) {
  if (size < kFrameHeaderBytes) {
    throw FrameError("truncated frame header: " + std::to_string(size) +
                     " of " + std::to_string(kFrameHeaderBytes) + " bytes");
  }
  ByteReader r(data, kFrameHeaderBytes);
  const auto magic = r.get<std::uint32_t>();
  if (magic != kFrameMagic) {
    throw FrameError("bad frame magic " + std::to_string(magic));
  }
  const auto version = r.get<std::uint8_t>();
  if (version != kFrameVersion) {
    throw FrameError("unsupported frame version " + std::to_string(version));
  }
  const auto tag = r.get<std::uint8_t>();
  if (tag != static_cast<std::uint8_t>(FrameTag::kBarrier) &&
      tag != static_cast<std::uint8_t>(FrameTag::kRound)) {
    throw FrameError("unknown frame tag " + std::to_string(tag));
  }
  const auto payload_bytes = r.get<std::uint64_t>();
  if (payload_bytes > kMaxFramePayload) {
    throw FrameError("oversized frame payload: " +
                     std::to_string(payload_bytes) + " > " +
                     std::to_string(kMaxFramePayload) + " bytes");
  }
  return FrameHeader{static_cast<FrameTag>(tag), payload_bytes};
}

bool FrameStream::send(FrameTag tag, ByteSpan payload) {
  ByteWriter header;
  header.reserve(kFrameHeaderBytes);
  encode_frame_header(header, tag, payload.size());
  const bool ok =
      io::write_full(fd_, header.bytes().data(), header.bytes().size()) &&
      io::write_full(fd_, payload.data(), payload.size());
  if (ok && counters_ != nullptr) {
    ++counters_->frames_sent;
    counters_->bytes_sent += kFrameHeaderBytes + payload.size();
    ++counters_->flushes;  // one kernel handoff per frame (unbuffered)
  }
  return ok;
}

std::optional<Frame> FrameStream::recv() {
  std::array<std::byte, kFrameHeaderBytes> header{};
  if (!io::read_full(fd_, header.data(), header.size())) {
    return std::nullopt;  // peer closed before (or mid) header
  }
  const FrameHeader h = decode_frame_header(header.data(), header.size());
  Frame frame;
  frame.tag = h.tag;
  frame.payload.resize(h.payload_bytes);
  if (h.payload_bytes > 0 &&
      !io::read_full(fd_, frame.payload.data(), frame.payload.size())) {
    throw FrameError("frame payload cut short: peer closed mid-message");
  }
  if (counters_ != nullptr) {
    ++counters_->frames_received;
    counters_->bytes_received += kFrameHeaderBytes + h.payload_bytes;
  }
  return frame;
}

// --- wire records ------------------------------------------------------

void encode_barrier(ByteWriter& w, const BarrierRecord& record) {
  w.put<std::uint8_t>(record.status);
  w.put<std::uint64_t>(record.result_bytes);
  w.put<double>(record.body_seconds);
}

BarrierRecord decode_barrier(ByteReader& r) {
  BarrierRecord record;
  record.status = r.get<std::uint8_t>();
  if (record.status > kWorkerPublishFailed) {
    throw FrameError("unknown worker status " +
                     std::to_string(record.status) + " in barrier record");
  }
  record.result_bytes = r.get<std::uint64_t>();
  record.body_seconds = r.get<double>();
  return record;
}

void encode_machine_result(ByteWriter& w, const MachineReport& report,
                           const std::vector<Envelope>& outbox) {
  w.put(report);
  w.put<std::uint64_t>(outbox.size());
  for (const Envelope& env : outbox) {
    w.put<std::uint32_t>(env.dest);
    w.put_vector(env.payload);
  }
}

void decode_machine_result(ByteReader& r, MachineReport* report,
                           std::vector<Envelope>* outbox) {
  *report = r.get<MachineReport>();
  outbox->clear();
  const auto count = r.get<std::uint64_t>();
  // Cap the speculative reserve: a corrupt count cannot force a huge
  // allocation — each envelope costs >= 12 wire bytes, so the reader will
  // underflow (ContractViolation) long before a capped vector regrows.
  constexpr std::uint64_t kReserveCap = 1u << 16;
  outbox->reserve(static_cast<std::size_t>(std::min(count, kReserveCap)));
  for (std::uint64_t e = 0; e < count; ++e) {
    const auto dest = r.get<std::uint32_t>();
    outbox->push_back(Envelope{dest, r.get_vector<std::byte>()});
  }
}

void encode_round_command(ByteWriter& w, const RoundCommand& command) {
  w.put<std::uint32_t>(command.body_id);
  w.put<std::uint64_t>(command.round);
  w.put<std::uint64_t>(command.seed);
  w.put<std::uint64_t>(command.begin);
  w.put<std::uint64_t>(command.end);
  w.put<std::uint64_t>(command.grain);
  w.put<std::uint64_t>(command.input_bytes);
  w.put_vector(command.params);
}

RoundCommand decode_round_command(ByteReader& r) {
  RoundCommand command;
  command.body_id = r.get<std::uint32_t>();
  command.round = r.get<std::uint64_t>();
  command.seed = r.get<std::uint64_t>();
  command.begin = r.get<std::uint64_t>();
  command.end = r.get<std::uint64_t>();
  if (command.end <= command.begin) {
    throw FrameError("round command for the empty machine range [" +
                     std::to_string(command.begin) + ", " +
                     std::to_string(command.end) + ")");
  }
  command.grain = r.get<std::uint64_t>();
  if (command.grain == 0) throw FrameError("round command with a zero grain");
  command.input_bytes = r.get<std::uint64_t>();
  command.params = r.get_vector<std::byte>();
  return command;
}

// --- worker-side round execution ---------------------------------------

BarrierRecord run_claimed_machines(const BodyEntry& body,
                                   const RoundCommand& command,
                                   std::atomic<std::uint64_t>& next,
                                   const std::vector<ByteChain>& inputs,
                                   ByteWriter& out) {
  BarrierRecord record;
  const Stopwatch body_wall;
  try {
    const BodyEntry::Params params = body.decode(command.params);
    for (;;) {
      const std::uint64_t first = next.fetch_add(command.grain);
      if (first >= command.end) break;
      const std::uint64_t last = std::min(command.end, first + command.grain);
      out.put<std::uint64_t>(first);
      out.put<std::uint64_t>(last);
      for (std::size_t i = first; i < last; ++i) {
        std::vector<Envelope> outbox;
        MachineContext ctx(i, &inputs[i],
                           derive_stream(command.seed, command.round, i),
                           &outbox);
        ctx.report_.input_bytes = inputs[i].total_bytes();
        body.call(body.fn, ctx, params.get());
        encode_machine_result(out, ctx.report_, outbox);
      }
    }
  } catch (const std::exception& e) {
    record.status = kWorkerBodyThrew;
    out = ByteWriter{};
    out.put_string(e.what());
  } catch (...) {
    record.status = kWorkerBodyThrew;
    out = ByteWriter{};
    out.put_string("non-standard exception in machine body");
  }
  record.body_seconds = body_wall.seconds();
  record.result_bytes = out.bytes().size();
  return record;
}

std::size_t decode_claimed_results(ByteReader& r, const RoundWork& work,
                                   std::vector<char>& filled) {
  std::size_t decoded = 0;
  while (!r.exhausted()) {
    const auto first = r.get<std::uint64_t>();
    const auto last = r.get<std::uint64_t>();
    if (first >= last || last > work.machines) {
      throw FrameError("result chunk [" + std::to_string(first) + ", " +
                       std::to_string(last) + ") outside the round's " +
                       std::to_string(work.machines) + " machines");
    }
    for (std::size_t i = first; i < last; ++i) {
      if (filled[i] != 0) {
        throw FrameError("machine " + std::to_string(i) +
                         " decoded twice in one round");
      }
      filled[i] = 1;
      decode_machine_result(r, &(*work.reports)[i], &(*work.outboxes)[i]);
    }
    decoded += last - first;
  }
  return decoded;
}

}  // namespace mpcsd::mpc
