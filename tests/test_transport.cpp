// The transport layer: frame header validation, wire-record round trips
// (barrier / round command / machine results), FrameStream over real fds,
// and the EINTR-safe io helpers.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "common/bytes.hpp"
#include "common/contracts.hpp"
#include "common/io.hpp"
#include "mpc/stats.hpp"
#include "mpc/transport.hpp"

namespace mpcsd::mpc {
namespace {

Bytes header_bytes(FrameTag tag, std::uint64_t payload_bytes) {
  ByteWriter w;
  encode_frame_header(w, tag, payload_bytes);
  return std::move(w).take();
}

TEST(Frame, HeaderRoundTripsEveryTag) {
  const Bytes raw = header_bytes(FrameTag::kBarrier, 12345);
  ASSERT_EQ(raw.size(), kFrameHeaderBytes);
  const FrameHeader h = decode_frame_header(raw.data(), raw.size());
  EXPECT_EQ(h.tag, FrameTag::kBarrier);
  EXPECT_EQ(h.payload_bytes, 12345u);
}

TEST(Frame, TruncatedHeaderThrows) {
  const Bytes raw = header_bytes(FrameTag::kBarrier, 0);
  for (std::size_t n = 0; n < kFrameHeaderBytes; ++n) {
    EXPECT_THROW((void)decode_frame_header(raw.data(), n), FrameError) << n;
  }
}

TEST(Frame, BadMagicThrows) {
  Bytes raw = header_bytes(FrameTag::kBarrier, 0);
  raw[0] ^= std::byte{0xFF};
  EXPECT_THROW((void)decode_frame_header(raw.data(), raw.size()), FrameError);
}

TEST(Frame, UnsupportedVersionThrows) {
  Bytes raw = header_bytes(FrameTag::kBarrier, 0);
  raw[4] = std::byte{kFrameVersion + 1};
  EXPECT_THROW((void)decode_frame_header(raw.data(), raw.size()), FrameError);
}

TEST(Frame, UnknownTagThrows) {
  // Every tag byte but kBarrier's 4 and kRound's 5 is rejected, 1-3 and
  // 6-8 included.
  for (const std::uint8_t tag :
       {std::uint8_t{0}, std::uint8_t{1}, std::uint8_t{2}, std::uint8_t{3},
        std::uint8_t{6}, std::uint8_t{7}, std::uint8_t{8},
        std::uint8_t{9}, std::uint8_t{0xFF}}) {
    Bytes raw = header_bytes(FrameTag::kBarrier, 0);
    raw[5] = std::byte{tag};
    EXPECT_THROW((void)decode_frame_header(raw.data(), raw.size()), FrameError)
        << unsigned(tag);
  }
}

TEST(Frame, OversizedPayloadThrows) {
  const Bytes raw = header_bytes(FrameTag::kBarrier, kMaxFramePayload + 1);
  EXPECT_THROW((void)decode_frame_header(raw.data(), raw.size()), FrameError);
  // The cap itself is allowed.
  const Bytes ok = header_bytes(FrameTag::kBarrier, kMaxFramePayload);
  EXPECT_EQ(decode_frame_header(ok.data(), ok.size()).payload_bytes,
            kMaxFramePayload);
}

TEST(Records, BarrierRoundTripsAndIsPinnedTo17Bytes) {
  const BarrierRecord in{kWorkerBodyThrew, 987654321, 1.5};
  ByteWriter w;
  encode_barrier(w, in);
  // The former process-backend pipe barrier layout, byte for byte.
  ASSERT_EQ(w.bytes().size(), kBarrierRecordBytes);
  ByteReader r(w.bytes().data(), w.bytes().size());
  const BarrierRecord out = decode_barrier(r);
  EXPECT_EQ(out.status, in.status);
  EXPECT_EQ(out.result_bytes, in.result_bytes);
  EXPECT_EQ(out.body_seconds, in.body_seconds);
}

TEST(Records, BarrierRejectsUnknownStatus) {
  ByteWriter w;
  encode_barrier(w, BarrierRecord{});
  Bytes raw(w.bytes().begin(), w.bytes().end());
  raw[0] = std::byte{kWorkerPublishFailed + 1};
  ByteReader r(raw.data(), raw.size());
  EXPECT_THROW((void)decode_barrier(r), FrameError);
}

TEST(Records, RoundCommandRoundTrips) {
  RoundCommand command;
  command.body_id = 7;
  command.round = 3;
  command.seed = 0x5eed;
  command.begin = 4;
  command.end = 9;
  command.input_bytes = 120;
  command.params = Bytes{std::byte{1}, std::byte{2}, std::byte{3}};
  ByteWriter w;
  encode_round_command(w, command);
  ByteReader r(w.bytes());
  const RoundCommand got = decode_round_command(r);
  EXPECT_TRUE(r.exhausted());
  EXPECT_EQ(got.body_id, command.body_id);
  EXPECT_EQ(got.round, command.round);
  EXPECT_EQ(got.seed, command.seed);
  EXPECT_EQ(got.begin, command.begin);
  EXPECT_EQ(got.end, command.end);
  EXPECT_EQ(got.input_bytes, command.input_bytes);
  EXPECT_EQ(got.params, command.params);
}

TEST(Records, RoundCommandRejectsAnEmptyMachineRange) {
  RoundCommand command;
  command.begin = 5;
  command.end = 5;
  ByteWriter w;
  encode_round_command(w, command);
  ByteReader r(w.bytes());
  EXPECT_THROW((void)decode_round_command(r), FrameError);
}

TEST(Records, MachineResultRoundTrips) {
  MachineReport report;
  report.input_bytes = 100;
  report.output_bytes = 200;
  report.scratch_bytes = 300;
  report.work = 400;
  std::vector<Envelope> outbox;
  for (std::uint32_t i = 0; i < 5; ++i) {
    outbox.push_back(Envelope{i * 7, Bytes(i, std::byte{0xAB})});
  }
  ByteWriter w;
  encode_machine_result(w, report, outbox);

  MachineReport report2;
  std::vector<Envelope> outbox2;
  ByteReader r(w.bytes().data(), w.bytes().size());
  decode_machine_result(r, &report2, &outbox2);
  EXPECT_EQ(report2.input_bytes, report.input_bytes);
  EXPECT_EQ(report2.output_bytes, report.output_bytes);
  EXPECT_EQ(report2.scratch_bytes, report.scratch_bytes);
  EXPECT_EQ(report2.work, report.work);
  ASSERT_EQ(outbox2.size(), outbox.size());
  for (std::size_t i = 0; i < outbox.size(); ++i) {
    EXPECT_EQ(outbox2[i].dest, outbox[i].dest) << i;
    EXPECT_EQ(outbox2[i].payload, outbox[i].payload) << i;
  }
}

TEST(Records, MachineResultRejectsTruncationWithoutHugeAllocation) {
  // A corrupt outbox count must fail on reader underflow, not allocate.
  MachineReport report;
  ByteWriter w;
  w.put(report);
  w.put<std::uint64_t>(std::uint64_t{1} << 60);  // absurd envelope count
  Bytes raw(w.bytes().begin(), w.bytes().end());
  MachineReport report2;
  std::vector<Envelope> outbox2;
  ByteReader r(raw.data(), raw.size());
  EXPECT_THROW(decode_machine_result(r, &report2, &outbox2), ContractViolation);
}

TEST(FrameStream, RoundTripsOverAPipeAndMeters) {
  int fds[2] = {-1, -1};
  ASSERT_EQ(::pipe(fds), 0);
  TransportCounters tx;
  TransportCounters rx;
  FrameStream writer(fds[1], &tx);
  FrameStream reader(fds[0], &rx);

  ByteWriter payload;
  payload.put_string("the payload");
  ASSERT_TRUE(writer.send(FrameTag::kBarrier, ByteSpan(payload.bytes())));
  const auto frame = reader.recv();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->tag, FrameTag::kBarrier);
  ByteReader r(frame->payload);
  EXPECT_EQ(r.get_string(), "the payload");

  EXPECT_EQ(tx.frames_sent, 1u);
  EXPECT_EQ(tx.bytes_sent, kFrameHeaderBytes + payload.bytes().size());
  EXPECT_EQ(tx.flushes, 1u);
  EXPECT_EQ(rx.frames_received, 1u);
  EXPECT_EQ(rx.bytes_received, kFrameHeaderBytes + payload.bytes().size());

  // Peer closing before a header is a clean EOF, not an error.
  io::close_fd(fds[1]);
  EXPECT_FALSE(reader.recv().has_value());
  io::close_fd(fds[0]);
}

TEST(FrameStream, PayloadCutShortIsAFrameError) {
  int fds[2] = {-1, -1};
  ASSERT_EQ(::pipe(fds), 0);
  // A header promising 64 bytes, then only 3 bytes before EOF.
  const Bytes head = header_bytes(FrameTag::kBarrier, 64);
  ASSERT_TRUE(io::write_full(fds[1], head.data(), head.size()));
  const char partial[3] = {'a', 'b', 'c'};
  ASSERT_TRUE(io::write_full(fds[1], partial, sizeof(partial)));
  io::close_fd(fds[1]);
  FrameStream reader(fds[0]);
  EXPECT_THROW((void)reader.recv(), FrameError);
  io::close_fd(fds[0]);
}

TEST(FrameStream, MalformedHeaderOnTheWireIsAFrameError) {
  int fds[2] = {-1, -1};
  ASSERT_EQ(::pipe(fds), 0);
  Bytes head = header_bytes(FrameTag::kBarrier, 8);
  head[0] ^= std::byte{0x55};  // corrupt the magic
  ASSERT_TRUE(io::write_full(fds[1], head.data(), head.size()));
  io::close_fd(fds[1]);
  FrameStream reader(fds[0]);
  EXPECT_THROW((void)reader.recv(), FrameError);
  io::close_fd(fds[0]);
}

TEST(Io, ReadFullAssemblesDribbledWrites) {
  // read_full must keep reading across short reads until the request is
  // filled; a writer thread dribbles the bytes a few at a time.
  int fds[2] = {-1, -1};
  ASSERT_EQ(::pipe(fds), 0);
  Bytes sent(10000);
  for (std::size_t i = 0; i < sent.size(); ++i) {
    sent[i] = std::byte(i * 131);
  }
  std::thread writer([&] {
    std::size_t off = 0;
    while (off < sent.size()) {
      const std::size_t n = std::min<std::size_t>(97, sent.size() - off);
      ASSERT_TRUE(io::write_full(fds[1], sent.data() + off, n));
      off += n;
    }
    io::close_fd(fds[1]);
  });
  Bytes got(sent.size());
  EXPECT_TRUE(io::read_full(fds[0], got.data(), got.size()));
  EXPECT_EQ(got, sent);
  // Stream exhausted: the next read hits EOF and reports failure.
  std::byte one;
  EXPECT_FALSE(io::read_full(fds[0], &one, 1));
  writer.join();
  io::close_fd(fds[0]);
  EXPECT_EQ(fds[0], -1);  // close_fd resets the stored fd
}

}  // namespace
}  // namespace mpcsd::mpc
