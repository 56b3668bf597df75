// Differential fuzz harness for the Myers kernel family: every ISA level
// the host can run must agree with the scalar kernel bit for bit — same
// distance, same bounded verdict, same work meter — on adversarial
// (lengths, alphabet, bound, content) combinations.  Lengths are decoded
// so mutation walks them across the 64-symbol word boundaries where lane
// carries and cross-word shifts live; alphabets span 2..1000.
//
// The prefix pass (seq::MyersPrefixPass) is checked against the bounded
// kernel too, under every lane kernel the host can run: one pass of the
// pattern over up to eight lanes of the text must answer every prefix
// length L of every lane exactly as `edit_distance_myers_bounded(shorter,
// longer, bound)` does on that lane's text — distance and word meter, so
// the abort column (L >= |a|) or row (L < |a|) as well.  Lane 0 is the
// whole text; the other lanes' count, offsets and reaches are drawn from
// the stream after both strings, so they never change (a, b, bound).
//
// Input layout (little-endian):
//   bytes 0-1  pattern length - 1   (mod 640, so 1..640 crosses words 1..10)
//   bytes 2-3  text length - 1      (mod 640)
//   bytes 4-5  alphabet size - 2    (mod 999, so sigma in 2..1000)
//   byte  6    bound for the k-bounded run (mod 128)
//   byte  7+   symbol entropy: seeds the deterministic stream that fills
//              both strings (and is itself mixed symbol-by-symbol).
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <optional>
#include <vector>

#include "common/cpu.hpp"
#include "common/hash.hpp"
#include "common/rng.hpp"
#include "seq/myers.hpp"
#include "seq/types.hpp"

namespace {

using namespace mpcsd;

std::uint16_t u16_at(const std::uint8_t* data, std::size_t i) {
  return static_cast<std::uint16_t>(data[i] |
                                    (static_cast<unsigned>(data[i + 1]) << 8));
}

SymString make_string(std::size_t len, std::uint32_t sigma, Pcg32& rng) {
  SymString s;
  s.reserve(len);
  for (std::size_t i = 0; i < len; ++i) {
    s.push_back(static_cast<Symbol>(rng.next() % sigma));
  }
  return s;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  if (size < 8) return 0;
  const std::size_t la = 1 + u16_at(data, 0) % 640;
  const std::size_t lb = 1 + u16_at(data, 2) % 640;
  const std::uint32_t sigma = 2 + u16_at(data, 4) % 999;
  const std::int64_t bound = data[6] % 128;

  Pcg32 rng(hash_bytes(data + 7, size - 7, hash_mix(kFnvOffset, size)), 77);
  const auto a = make_string(la, sigma, rng);
  const auto b = make_string(lb, sigma, rng);

  const Isa entry = active_isa();
  force_isa(Isa::kScalar);
  std::uint64_t ref_work = 0;
  const std::int64_t ref = seq::edit_distance_myers(a, b, &ref_work);
  std::uint64_t ref_bwork = 0;
  const std::optional<std::int64_t> ref_bounded =
      seq::edit_distance_myers_bounded(a, b, bound, &ref_bwork);

  for (const Isa level : {Isa::kAvx2, Isa::kAvx512}) {
    if (force_isa(level) != level) continue;  // host lacks the level
    std::uint64_t work = 0;
    if (seq::edit_distance_myers(a, b, &work) != ref) std::abort();
    if (work != ref_work) std::abort();
    std::uint64_t bwork = 0;
    if (seq::edit_distance_myers_bounded(a, b, bound, &bwork) != ref_bounded) {
      std::abort();
    }
    if (bwork != ref_bwork) std::abort();
  }
  force_isa(entry);

  // The lanes, drawn after both strings so every input keeps its (a, b,
  // bound): lane 0 is all of b, the others start anywhere in b and reach
  // anywhere up to its end, so shorter lanes run past the end of b on the
  // zero row while the longest lane finishes.
  const std::size_t lanes = 1 + rng.next() % seq::MyersPrefixPass::kMaxLanes;
  std::vector<seq::MyersPrefixPass::Lane> lane(lanes);
  lane[0] = {0, static_cast<std::int64_t>(lb)};
  for (std::size_t l = 1; l < lanes; ++l) {
    const auto offset = static_cast<std::int64_t>(rng.next() % (lb + 1));
    lane[l] = {offset, static_cast<std::int64_t>(rng.next() % (lb + 1 - offset))};
  }
  std::vector<std::int64_t> keep;  // every column a lane may read below |a|
  for (std::int64_t len = 1; len < static_cast<std::int64_t>(std::min(la, lb + 1)); ++len) {
    keep.push_back(len);
  }
  std::vector<std::vector<seq::MyersPrefixPass::Answer>> want(lanes);
  for (std::size_t l = 0; l < lanes; ++l) {
    for (std::int64_t len = 0; len <= lane[l].reach; ++len) {
      const SymView prefix = SymView(b).subspan(static_cast<std::size_t>(lane[l].offset),
                                                static_cast<std::size_t>(len));
      std::uint64_t words = 0;
      const auto d = len >= static_cast<std::int64_t>(la)
                         ? seq::edit_distance_myers_bounded(a, prefix, bound, &words)
                         : seq::edit_distance_myers_bounded(prefix, a, bound, &words);
      want[l].push_back({d, words});
    }
  }
  seq::MyersPrefixPass pass(a);
  for (const Isa level : {Isa::kScalar, Isa::kAvx2, Isa::kAvx512}) {
    if (force_isa(level) != level) continue;  // host lacks the level
    pass.run(b, lane, keep);
    for (std::size_t l = 0; l < lanes; ++l) {
      for (std::int64_t len = 0; len <= lane[l].reach; ++len) {
        const auto got = pass.bounded(l, len, bound);
        const auto& w = want[l][static_cast<std::size_t>(len)];
        if (got.distance != w.distance || got.words != w.words) std::abort();
      }
    }
  }
  force_isa(entry);
  return 0;
}
