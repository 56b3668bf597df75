// Differential fuzz harness for Algorithm 1's per-candidate engine:
// `ulam_mpc::BlockEvaluator::evaluate`, which solves one chain DP per
// (start, cap) row and answers each window's end from it, must keep the
// tuple, prune and work charge of the point-level engine on every window
// — slice the feed to q in [sp, ep) (charged, plus 1), keep the band
// |q - sp - p| <= cap, then `seq::bounded_ulam_from_match_points` — and
// skip a repeated window without a charge.  One evaluator serves the
// whole window stream, so its row is kept, rebuilt and returned to.
//
// Input layout (little-endian):
//   bytes 0-1  n - 2          (mod 1023, so n in 2..1024)
//   byte  2    bits 0-6: planted Ulam edits; bit 7: then swap every
//              adjacent pair of s̄ (every diagonal run has length 1)
//   bytes 3-4  block begin    (mod n)
//   byte  5    block length - 1 (cut at n)
//   byte  6+   windows, 4 bytes each:
//                b0  start, as a signed offset from the block's image
//                b1  end, as a signed offset from start + block length
//                b2  cap
//                b3  bit 0 keep the previous start, bit 1 keep the
//                    previous cap, bit 2 repeat the previous window
//   The strings are drawn from a stream seeded by bytes 0-5.
#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <optional>
#include <set>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/hash.hpp"
#include "core/workload.hpp"
#include "seq/ulam.hpp"
#include "ulam_mpc/candidates.hpp"

namespace {

using namespace mpcsd;

std::uint16_t u16_at(const std::uint8_t* data, std::size_t i) {
  return static_cast<std::uint16_t>(data[i] |
                                    (static_cast<unsigned>(data[i + 1]) << 8));
}

/// The work and tuple the point-level engine gives window [sp, ep) (both
/// clamped) of a block of `block_len` with match points `pts`.
struct PointEvaluation {
  std::optional<std::int64_t> distance;
  std::uint64_t work = 1;
};

PointEvaluation evaluate_points(const std::vector<seq::MatchPoint>& pts,
                                std::int64_t block_len, std::int64_t sp,
                                std::int64_t ep, std::int64_t cap) {
  PointEvaluation out;
  std::vector<seq::MatchPoint> band;
  for (const seq::MatchPoint& m : pts) {
    if (m.q < sp || m.q >= ep) continue;
    ++out.work;
    if (std::abs(m.q - sp - m.p) <= cap) band.push_back(seq::MatchPoint{m.p, m.q - sp});
  }
  out.distance =
      seq::bounded_ulam_from_match_points(band, block_len, ep - sp, cap, &out.work);
  return out;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  if (size < 6) return 0;
  const std::int64_t n = 2 + u16_at(data, 0) % 1023;
  const std::int64_t edits = data[2] & 0x7FU;
  const bool swaps = (data[2] & 0x80U) != 0;
  const std::int64_t begin = u16_at(data, 3) % n;
  const std::int64_t end = std::min(n, begin + 1 + data[5]);
  const std::int64_t b_len = end - begin;

  const std::uint64_t seed = hash_bytes(data, 6);
  const SymString s = core::random_permutation(n, seed);
  SymString t = core::plant_edits(s, edits, seed + 1, true).text;
  if (swaps) {
    for (std::size_t i = 0; i + 1 < t.size(); i += 2) std::swap(t[i], t[i + 1]);
  }
  const auto n_bar = static_cast<std::int64_t>(t.size());

  std::unordered_map<Symbol, std::int64_t> pos_in_t;
  for (std::size_t j = 0; j < t.size(); ++j) {
    pos_in_t.emplace(t[j], static_cast<std::int64_t>(j));
  }
  std::vector<std::int64_t> positions;
  for (std::int64_t p = begin; p < end; ++p) {
    const auto it = pos_in_t.find(s[static_cast<std::size_t>(p)]);
    positions.push_back(it == pos_in_t.end() ? -1 : it->second);
  }
  ulam_mpc::BlockEvaluator eval(begin, positions, n_bar, nullptr);
  const std::int64_t image =
      eval.points().empty() ? begin : eval.points().front().q - eval.points().front().p;

  std::set<std::pair<std::int64_t, std::int64_t>> seen;
  std::vector<ulam_mpc::Tuple> out;
  std::int64_t sp_raw = image;
  std::int64_t ep_raw = image + b_len;
  std::int64_t cap = b_len;
  const std::size_t windows = std::min<std::size_t>((size - 6) / 4, 1024);
  for (std::size_t w = 0; w < windows; ++w) {
    const std::uint8_t* in = data + 6 + 4 * w;
    if ((in[3] & 4U) == 0) {
      if ((in[3] & 1U) == 0) sp_raw = image + static_cast<std::int8_t>(in[0]);
      ep_raw = sp_raw + b_len + static_cast<std::int8_t>(in[1]);
      if ((in[3] & 2U) == 0) cap = in[2];
    }
    const std::int64_t sp = std::clamp<std::int64_t>(sp_raw, 0, n_bar);
    const std::int64_t ep = std::clamp<std::int64_t>(ep_raw, sp, n_bar);
    const std::uint64_t work_before = eval.work();
    const std::size_t out_before = out.size();
    eval.evaluate(sp_raw, ep_raw, cap, out);
    if (!seen.insert({sp, ep}).second) {  // a repeated window is skipped
      if (eval.work() != work_before || out.size() != out_before) std::abort();
      continue;
    }
    const PointEvaluation want = evaluate_points(eval.points(), b_len, sp, ep, cap);
    if (eval.work() - work_before != want.work) std::abort();
    if (out.size() - out_before != (want.distance.has_value() ? 1U : 0U)) std::abort();
    if (want.distance.has_value() &&
        out.back() != ulam_mpc::Tuple{begin, end, sp, ep, *want.distance}) {
      std::abort();
    }
  }
  return 0;
}
