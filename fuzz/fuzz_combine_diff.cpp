// Differential fuzz harness for the tuple combine (Algorithms 2 and 4):
// the fast solvers of `seq::combine_tuples` must answer exactly as the
// O(T²) reference does, for both gap models, and charge the documented
// work (`max_combine_work(T)` for kMax, 6·T for kSum).  A
// `seq::MaxCombineSolver` kept across inputs must agree too, so its
// scratch is carried from wide instances to narrow ones and back.
//
// The fast solvers radix-sort (position, index) words with one 8-bit digit
// per byte of the key span, so the decoded spread walks the key span from
// one digit to four and the origin moves the keys far from 0.  With flag
// bit 2 the input is narrow instead (n and n_bar at most 64, a few blocks,
// up to 255 tuples), the shape for which the kMax combine takes its sweep
// along s rather than the CDQ and the kSum combine its dense sweep rather
// than the Fenwick (once the tuples outnumber the blocks enough to pay:
// seed_narrow_sweep_blocks, seed_narrow_sweep_few_blocks and the two
// seed_narrow_dense_sum_* seeds do).
//
// Input layout (little-endian):
//   bytes 0-3   n - 1        (mod 2^31, so n in 1..2^31)
//   bytes 4-7   n_bar        (mod 2^31; n + n_bar stays below 2^32)
//   bytes 8-11  origin       (mod n): where the tuples' blocks start
//   byte  12    log2 spread  (mod 32): blocks lie in [origin, origin + spread)
//   byte  13    tuple count  (0..255)
//   byte  14    flags: bit 0 block-aligned tuples (many share a block_begin),
//                      bit 1 pass the input in block_begin order (the
//                      combine then skips its own sort),
//                      bit 2 narrow: n - 1 and n_bar are taken mod 64 and
//                      65, blocks lie in [origin, n), and byte 12 is the
//                      block count - 1 (mod 8) instead of the spread
//   byte  15+   entropy: seeds the stream that draws every tuple.
#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <vector>

#include "common/hash.hpp"
#include "common/rng.hpp"
#include "seq/combine.hpp"

namespace {

using namespace mpcsd;

std::uint32_t u32_at(const std::uint8_t* data, std::size_t i) {
  return static_cast<std::uint32_t>(data[i]) |
         (static_cast<std::uint32_t>(data[i + 1]) << 8U) |
         (static_cast<std::uint32_t>(data[i + 2]) << 16U) |
         (static_cast<std::uint32_t>(data[i + 3]) << 24U);
}

/// Tuples in a band of width `spread` from `origin`, cut into `blocks`
/// blocks, each window near its block's diagonal so that chains form at
/// every scale.
std::vector<seq::Tuple> make_tuples(std::int64_t n, std::int64_t n_bar,
                                    std::int64_t origin, std::int64_t spread,
                                    std::int64_t blocks, std::size_t count,
                                    bool aligned, Pcg32& rng) {
  const std::int64_t top = std::min(n, origin + spread);  // blocks in [origin, top)
  const std::int64_t width = std::max<std::int64_t>(1, (top - origin) / blocks);
  const std::int64_t jitter = std::max<std::int64_t>(1, width / 4);
  std::vector<seq::Tuple> tuples;
  for (std::size_t i = 0; i < count; ++i) {
    seq::Tuple t;
    if (aligned) {
      t.block_begin = origin + width * rng.uniform(0, (top - 1 - origin) / width);
      t.block_end = std::min(n, t.block_begin + width);
    } else {
      t.block_begin = rng.uniform(origin, top - 1);
      t.block_end = std::min(n, t.block_begin + rng.uniform(1, 2 * width));
    }
    // n_bar < 2^31, so the product stays below 2^62.
    const std::int64_t diagonal = t.block_begin * n_bar / n;
    t.window_begin =
        std::clamp<std::int64_t>(diagonal + rng.uniform(-jitter, jitter), 0, n_bar);
    t.window_end = std::clamp<std::int64_t>(
        t.window_begin + (t.block_end - t.block_begin) + rng.uniform(-jitter, jitter),
        t.window_begin, n_bar);
    t.distance = rng.uniform(0, 64);
    tuples.push_back(t);
  }
  return tuples;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  if (size < 15) return 0;
  const bool aligned = (data[14] & 1U) != 0;
  const bool by_begin = (data[14] & 2U) != 0;
  const bool narrow = (data[14] & 4U) != 0;
  const std::uint32_t n_mod = narrow ? 64U : 1U << 31U;
  const std::int64_t n = 1 + static_cast<std::int64_t>(u32_at(data, 0) % n_mod);
  const std::int64_t n_bar = u32_at(data, 4) % (narrow ? 65U : 1U << 31U);
  const std::int64_t origin = u32_at(data, 8) % n;
  const std::int64_t spread = narrow ? n : std::int64_t{1} << (data[12] % 32U);
  const std::int64_t blocks = narrow ? 1 + data[12] % 8 : 16;
  const std::size_t count = data[13];

  Pcg32 rng(hash_bytes(data + 15, size - 15, hash_mix(kFnvOffset, size)), 91);
  auto tuples = make_tuples(n, n_bar, origin, spread, blocks, count, aligned, rng);
  const auto block_order = [](const seq::Tuple& a, const seq::Tuple& b) {
    return a.block_begin < b.block_begin;
  };
  if (by_begin) std::stable_sort(tuples.begin(), tuples.end(), block_order);

  for (const seq::GapCost gap : {seq::GapCost::kMax, seq::GapCost::kSum}) {
    const std::int64_t want = seq::combine_tuples_naive(
        tuples, n, n_bar, seq::CombineOptions{gap, false, false});
    std::uint64_t work = 0;
    if (seq::combine_tuples(tuples, n, n_bar, seq::CombineOptions{gap, true, false},
                            &work) != want) {
      std::abort();
    }
    const std::uint64_t m = tuples.size();
    if (work != (gap == seq::GapCost::kMax ? seq::max_combine_work(m) : 6 * m)) {
      std::abort();
    }
    if (gap != seq::GapCost::kMax) continue;
    static seq::MaxCombineSolver reused;  // scratch survives between inputs
    auto sorted = tuples;
    std::stable_sort(sorted.begin(), sorted.end(), block_order);
    if (reused.solve(sorted, n, n_bar) != want) std::abort();
  }
  return 0;
}
