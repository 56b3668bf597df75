// Fuzz harness for the wire layer every cross-machine byte travels through:
// `ByteReader` / `ChainReader` primitives, the `Codec<T>` shapes of the
// plan layer (PODs, length-prefixed vectors, strings, field-tuple structs,
// tagged variants, inbox streams), and the combine round's tuple batches
// (`seq::read_all_tuples`, both overloads, and the combine stages' input
// codec `Codec<mpc::TupleInbox>`).
//
// Invariants under arbitrary input bytes:
//   * decode never crashes, never reads out of bounds, never allocates
//     unboundedly — malformed input is rejected with `ContractViolation`;
//   * whatever DOES decode round-trips: re-encoding the value and decoding
//     it again yields an equal value consuming the whole re-encoding;
//   * the combine stages' input codec accepts exactly what
//     `seq::read_all_tuples` accepts, with equal tuples.
//
// The same bytes are decoded twice — contiguously through `ByteReader` and
// through a `ChainReader` over input-derived fragment splits — so values
// straddling fragment boundaries are exercised on every input.
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <optional>
#include <string>
#include <tuple>
#include <variant>
#include <vector>

#include "common/bytes.hpp"
#include "common/contracts.hpp"
#include "mpc/combine_round.hpp"
#include "mpc/plan.hpp"
#include "seq/combine.hpp"

namespace {

using namespace mpcsd;
using mpc::Codec;
using mpc::Inbox;

/// A composite message exercising the field-tuple codec with nested
/// vector/string members (the shape of real driver messages).
struct Probe {
  std::uint32_t id = 0;
  std::vector<std::int64_t> values;
  std::string tag;

  static constexpr auto fields() {
    return std::make_tuple(&Probe::id, &Probe::values, &Probe::tag);
  }
  bool operator==(const Probe&) const = default;
};

using Poly = std::variant<std::uint32_t, std::vector<std::uint16_t>, Probe>;

/// Decodes a `T`, and if that succeeds, demands an exact value round-trip.
template <typename T, typename Reader>
void decode_and_roundtrip(Reader& r) {
  try {
    const T value = Codec<T>::decode(r);
    ByteWriter w;
    Codec<T>::encode(w, value);
    const Bytes again = std::move(w).take();
    ByteReader rr(again);
    const T twice = Codec<T>::decode(rr);
    if (!(twice == value) || !rr.exhausted()) std::abort();
  } catch (const ContractViolation&) {
    // Malformed input rejected — exactly the contract under test.
  }
}

/// Decodes the whole payload as tuple batches, through `read_all_tuples`
/// and through the combine stages' input codec over `chain` (the same
/// bytes): both accept with equal tuples or both reject.  Whatever decodes
/// must re-encode (one batch) and decode to the same tuples.
template <typename Payload>
void decode_tuple_batches(const Payload& payload, const ByteChain& chain) {
  std::optional<std::vector<seq::Tuple>> direct;
  std::optional<std::vector<seq::Tuple>> staged;
  try {
    direct = seq::read_all_tuples(payload);
  } catch (const ContractViolation&) {
  }
  try {
    ChainReader r(chain);
    staged = Codec<mpc::TupleInbox>::decode(r).tuples;
  } catch (const ContractViolation&) {
  }
  if (direct != staged) std::abort();
  if (!direct) return;
  ByteWriter w;
  seq::write_tuples(w, *direct);
  if (seq::read_all_tuples(w.bytes()) != *direct) std::abort();
}

template <typename Reader>
void decode_all_shapes(Reader& r) {
  decode_and_roundtrip<std::uint32_t>(r);
  decode_and_roundtrip<std::vector<std::uint32_t>>(r);
  decode_and_roundtrip<std::string>(r);
  decode_and_roundtrip<Probe>(r);
  decode_and_roundtrip<Poly>(r);
  decode_and_roundtrip<std::vector<Probe>>(r);
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  const auto* bytes = reinterpret_cast<const std::byte*>(data);

  // Pass 1: one contiguous buffer (the combine codec sees it as a process
  // worker's one-part arena input).
  {
    ByteReader r(bytes, size);
    decode_all_shapes(r);
    ByteChain whole;
    whole.add(ByteSpan(bytes, size));
    decode_tuple_batches(Bytes(bytes, bytes + size), whole);
  }

  // Pass 2: the same bytes as a fragmented inbox chain.  Split points come
  // from the input itself so the fuzzer can steer values onto boundaries.
  {
    ByteChain chain;
    std::size_t pos = 0;
    std::size_t salt = 0;
    while (pos < size) {
      salt = salt * 131 + static_cast<std::size_t>(data[pos]);
      const std::size_t piece = 1 + salt % 23;
      const std::size_t take = piece < size - pos ? piece : size - pos;
      chain.add(ByteSpan(bytes + pos, take));
      pos += take;
    }
    ChainReader r(chain);
    decode_all_shapes(r);
    decode_tuple_batches(chain, chain);

    // An inbox stream over the fragments: decode messages until the chain
    // is exhausted or a malformed tail is rejected.
    ChainReader inbox_r(chain);
    try {
      (void)Codec<Inbox<Probe>>::decode(inbox_r);
    } catch (const ContractViolation&) {
    }
  }
  return 0;
}
