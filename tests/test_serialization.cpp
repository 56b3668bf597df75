// Message formats: tuple batches, RepTuples, and the round-2 combine
// consuming raw mailbox payloads through its one decoder
// (`seq::read_all_tuples`, which `Codec<mpc::TupleInbox>` runs).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "common/contracts.hpp"
#include "edit_mpc/graph_tau.hpp"
#include "mpc/combine_round.hpp"
#include "seq/combine.hpp"

namespace mpcsd {
namespace {

/// What a combine machine's body receives from `chain`.
std::vector<seq::Tuple> combine_stage_input(const ByteChain& chain) {
  ChainReader r(chain);
  std::vector<seq::Tuple> tuples = mpc::Codec<mpc::TupleInbox>::decode(r).tuples;
  EXPECT_TRUE(r.exhausted());
  return tuples;
}

/// The combine stage's former decode: one vector per sender message, then
/// a flatten in sender order.
std::vector<seq::Tuple> per_message_then_flatten(const ByteChain& chain) {
  ChainReader r(chain);
  const auto inbox = mpc::Codec<mpc::Inbox<std::vector<seq::Tuple>>>::decode(r);
  std::vector<seq::Tuple> flat;
  for (const auto& batch : inbox.messages) flat.insert(flat.end(), batch.begin(), batch.end());
  return flat;
}

TEST(TupleIo, RoundTripSingleBatch) {
  std::vector<seq::Tuple> tuples{
      {0, 10, 3, 12, 4},
      {10, 20, 12, 25, 0},
  };
  ByteWriter w;
  seq::write_tuples(w, tuples);
  const auto back = seq::read_all_tuples(w.bytes());
  EXPECT_EQ(back, tuples);
}

TEST(TupleIo, ConcatenatedBatches) {
  ByteWriter w1;
  seq::write_tuples(w1, std::vector<seq::Tuple>{{0, 5, 0, 5, 1}});
  ByteWriter w2;
  seq::write_tuples(w2, std::vector<seq::Tuple>{});
  ByteWriter w3;
  seq::write_tuples(w3, std::vector<seq::Tuple>{{5, 9, 5, 9, 2}, {2, 4, 2, 4, 0}});
  const Bytes merged = concat({w1.bytes(), w2.bytes(), w3.bytes()});
  const auto back = seq::read_all_tuples(merged);
  ASSERT_EQ(back.size(), 3u);
  EXPECT_EQ(back[0].distance, 1);
  EXPECT_EQ(back[2].block_begin, 2);
}

TEST(TupleIo, EmptyPayload) {
  EXPECT_TRUE(seq::read_all_tuples(Bytes{}).empty());
  // An empty inbox (no sender wrote) and an inbox of empty batches.
  const ByteChain none;
  EXPECT_TRUE(seq::read_all_tuples(none).empty());
  EXPECT_TRUE(combine_stage_input(none).empty());
  ByteWriter w1;
  seq::write_tuples(w1, std::vector<seq::Tuple>{});
  ByteWriter w2;
  seq::write_tuples(w2, std::vector<seq::Tuple>{});
  ByteChain empties;
  empties.add(ByteSpan(w1.bytes()));
  empties.add(ByteSpan(w2.bytes()));
  EXPECT_TRUE(seq::read_all_tuples(empties).empty());
  EXPECT_TRUE(combine_stage_input(empties).empty());
  EXPECT_TRUE(per_message_then_flatten(empties).empty());
}

TEST(RepTuple, PodRoundTrip) {
  edit_mpc::RepTuple t;
  t.node = 17;
  t.rep = 42;
  t.min_tau_index = 3;
  t.rep_distance = 999;
  ByteWriter w;
  w.put(t);
  ByteReader r(w.bytes());
  const auto back = r.get<edit_mpc::RepTuple>();
  EXPECT_EQ(back, t);
}

TEST(CombineMachine, ComputesUlamAnswerFromPayload) {
  // Two adjacent perfect tuples covering [0,10) -> [0,10).
  std::vector<seq::Tuple> tuples{{0, 5, 0, 5, 1}, {5, 10, 5, 10, 2}};
  ByteWriter w;
  seq::write_tuples(w, tuples);
  std::uint64_t work = 0;
  // Default options: Algorithm 2's fast max-gap combine.
  const auto answer =
      seq::combine_tuples(seq::read_all_tuples(w.bytes()), 10, 10, {}, &work);
  EXPECT_EQ(answer, 3);
  EXPECT_GT(work, 0u);
}

TEST(CombineMachine, EmptyPayloadGivesTrivialAnswer) {
  EXPECT_EQ(seq::combine_tuples(seq::read_all_tuples(Bytes{}), 7, 11),
            11);  // max-gap mode
}

// ---- Malformed-payload regressions (adversarial length prefixes). ----

TEST(Robustness, AdversarialVectorLengthThrows) {
  // Length prefix of 2^61 + 1 elements: n * sizeof(int64) wraps to 8 mod
  // 2^64, so a multiply-based bounds check would accept it against the 16
  // trailing bytes and allocate 2^61 elements.  The divide-based check
  // must reject it.
  ByteWriter w;
  w.put<std::uint64_t>((1ULL << 61U) + 1);
  w.put<std::int64_t>(7);
  w.put<std::int64_t>(8);
  ByteReader r(w.bytes());
  EXPECT_THROW(r.get_vector<std::int64_t>(), ContractViolation);
}

TEST(Robustness, TruncatedVectorThrows) {
  ByteWriter w;
  w.put<std::uint64_t>(4);  // claims 4 elements...
  w.put<std::int32_t>(1);   // ...delivers one
  ByteReader r(w.bytes());
  EXPECT_THROW(r.get_vector<std::int32_t>(), ContractViolation);
}

TEST(Robustness, TruncatedStringThrows) {
  ByteWriter w;
  w.put<std::uint64_t>(100);
  w.put<std::uint8_t>('x');
  ByteReader r(w.bytes());
  EXPECT_THROW(r.get_string(), ContractViolation);
}

TEST(Robustness, OverreadScalarThrows) {
  const Bytes empty;
  ByteReader r(empty);
  EXPECT_THROW(r.get<std::int64_t>(), ContractViolation);
}

TEST(Robustness, ChainReaderAdversarialLengthThrows) {
  ByteWriter w;
  w.put<std::uint64_t>((1ULL << 61U) + 1);
  w.put<std::int64_t>(7);
  w.put<std::int64_t>(8);
  const Bytes buf = std::move(w).take();
  ByteChain chain;
  chain.add(ByteSpan(buf));
  ChainReader r(chain);
  EXPECT_THROW(r.get_vector<std::int64_t>(), ContractViolation);
}

TEST(Robustness, AdversarialTupleCountThrows) {
  // A tuple batch whose count prefix claims more tuples than the payload
  // holds.  Unchecked, 2^62 reaches vector::reserve (std::length_error) and
  // 2^36 asks for 2^36 tuples (std::bad_alloc); both decoders, and the
  // round-2 body that uses one, must reject it as a contract violation.
  for (const std::uint64_t count : {std::uint64_t{1} << 62U, std::uint64_t{1} << 36U,
                                    std::uint64_t{2}}) {
    ByteWriter w;
    w.put<std::uint64_t>(count);
    w.put(seq::Tuple{0, 10, 3, 12, 4});
    const Bytes buf = std::move(w).take();
    EXPECT_THROW((void)seq::read_all_tuples(buf), ContractViolation) << count;
    ByteChain chain;
    chain.add(ByteSpan(buf));
    EXPECT_THROW((void)seq::read_all_tuples(chain), ContractViolation) << count;
    EXPECT_THROW((void)seq::combine_tuples(seq::read_all_tuples(buf), 10, 12),
                 ContractViolation)
        << count;
    EXPECT_THROW((void)combine_stage_input(chain), ContractViolation) << count;

    // The same count in a later sender's batch, after a well-formed one:
    // the check is against the bytes left, not the inbox's total.
    ByteWriter first;
    seq::write_tuples(first, std::vector<seq::Tuple>{{0, 5, 0, 5, 1}, {5, 9, 5, 9, 0}});
    ByteChain routed;
    routed.add(ByteSpan(first.bytes()));
    routed.add(ByteSpan(buf));
    EXPECT_THROW((void)seq::read_all_tuples(routed), ContractViolation) << count;
    EXPECT_THROW((void)combine_stage_input(routed), ContractViolation) << count;
  }
}

// ---- ChainReader: zero-copy inbox reading. ----

TEST(ChainIo, ReaderSpansFragmentBoundaries) {
  ByteWriter w;
  w.put<std::int64_t>(-42);
  w.put_vector(std::vector<std::int32_t>{1, 2, 3, 4, 5});
  w.put_string("hello chain");
  w.put<std::uint16_t>(999);
  const Bytes whole = std::move(w).take();

  // Every two-way split: values must read back even when they straddle the
  // fragment boundary.
  for (std::size_t split = 0; split <= whole.size(); ++split) {
    ByteChain chain;
    chain.add(ByteSpan(whole.data(), split));
    chain.add(ByteSpan(whole.data() + split, whole.size() - split));
    ChainReader r(chain);
    ASSERT_EQ(r.get<std::int64_t>(), -42) << "split=" << split;
    ASSERT_EQ(r.get_vector<std::int32_t>(), (std::vector<std::int32_t>{1, 2, 3, 4, 5}));
    ASSERT_EQ(r.get_string(), "hello chain");
    ASSERT_EQ(r.get<std::uint16_t>(), 999);
    ASSERT_TRUE(r.exhausted());
  }

  // Fine fragmentation: three-byte shards.
  ByteChain shards;
  for (std::size_t off = 0; off < whole.size(); off += 3) {
    shards.add(ByteSpan(whole.data() + off, std::min<std::size_t>(3, whole.size() - off)));
  }
  ChainReader r(shards);
  EXPECT_EQ(r.get<std::int64_t>(), -42);
  EXPECT_EQ(r.get_vector<std::int32_t>(), (std::vector<std::int32_t>{1, 2, 3, 4, 5}));
  EXPECT_EQ(r.get_string(), "hello chain");
  EXPECT_EQ(r.get<std::uint16_t>(), 999);
  EXPECT_TRUE(r.exhausted());
}

TEST(ChainIo, ToBytesMatchesConcat) {
  ByteWriter w1;
  w1.put<std::int64_t>(1);
  ByteWriter w2;
  w2.put<std::int64_t>(2);
  const Bytes b1 = std::move(w1).take();
  const Bytes b2 = std::move(w2).take();
  ByteChain chain;
  chain.add(ByteSpan(b1));
  chain.add(ByteSpan(b2));
  EXPECT_EQ(chain.to_bytes(), concat({b1, b2}));
  EXPECT_EQ(chain.total_bytes(), b1.size() + b2.size());
}

TEST(ChainIo, EmptyFragmentsDropped) {
  ByteChain chain;
  chain.add(ByteSpan{});
  EXPECT_TRUE(chain.empty());
  EXPECT_TRUE(chain.parts().empty());
  const Bytes b(4);
  chain.add(ByteSpan(b));
  chain.add(ByteSpan{});
  EXPECT_EQ(chain.parts().size(), 1u);
  EXPECT_EQ(chain.total_bytes(), 4u);
}

TEST(TupleIo, ChainOfBatchesMatchesConcat) {
  ByteWriter w1;
  seq::write_tuples(w1, std::vector<seq::Tuple>{{0, 5, 0, 5, 1}});
  ByteWriter w2;
  seq::write_tuples(w2, std::vector<seq::Tuple>{});
  ByteWriter w3;
  seq::write_tuples(w3, std::vector<seq::Tuple>{{5, 9, 5, 9, 2}, {2, 4, 2, 4, 0}});
  const Bytes b1 = std::move(w1).take();
  const Bytes b2 = std::move(w2).take();
  const Bytes b3 = std::move(w3).take();
  // Routed mail: one part per sender.
  ByteChain chain;
  chain.add(ByteSpan(b1));
  chain.add(ByteSpan(b2));
  chain.add(ByteSpan(b3));
  const Bytes whole = concat({b1, b2, b3});
  const std::vector<seq::Tuple> expected{{0, 5, 0, 5, 1}, {5, 9, 5, 9, 2}, {2, 4, 2, 4, 0}};
  EXPECT_EQ(seq::read_all_tuples(chain), expected);
  EXPECT_EQ(seq::read_all_tuples(whole), expected);
  EXPECT_EQ(combine_stage_input(chain), expected);
  EXPECT_EQ(per_message_then_flatten(chain), expected);

  // A process worker's arena input: the same bytes as one part.
  ByteChain arena;
  arena.add(ByteSpan(whole));
  EXPECT_EQ(combine_stage_input(arena), expected);

  // Fragments that split batches and tuples (neither routing shape makes
  // them, the reader must still take them).
  for (std::size_t split = 1; split < whole.size(); split += 7) {
    ByteChain two;
    two.add(ByteSpan(whole.data(), split));
    two.add(ByteSpan(whole.data() + split, whole.size() - split));
    EXPECT_EQ(combine_stage_input(two), expected) << split;
  }
}

}  // namespace
}  // namespace mpcsd
