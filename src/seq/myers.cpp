#include "seq/myers.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdlib>
#include <memory>
#include <vector>

#include "common/contracts.hpp"
#include "common/hash.hpp"
#include "seq/myers_kernel.hpp"

namespace mpcsd::seq {

namespace {

using detail::MyersMasks;
using detail::MyersRunFn;

/// One word of Hyyrö's blocked recurrence: advances the word's vertical
/// deltas (pv, mv) by one text column, given the column's equality word and
/// the horizontal delta `hin` entering below the word's first row, and
/// returns the horizontal delta leaving at row bit `top`.
inline int block_step(std::uint64_t eq, std::uint64_t& pv, std::uint64_t& mv,
                      int hin, std::uint64_t top) {
  const std::uint64_t pvk = pv;
  const std::uint64_t mvk = mv;
  const std::uint64_t xv = eq | mvk;
  if (hin < 0) eq |= 1ULL;
  const std::uint64_t xh = (((eq & pvk) + pvk) ^ pvk) | eq;
  std::uint64_t ph = mvk | ~(xh | pvk);
  std::uint64_t mh = pvk & xh;

  int hout = 0;
  if (ph & top) {
    hout = 1;
  } else if (mh & top) {
    hout = -1;
  }

  ph <<= 1U;
  mh <<= 1U;
  if (hin > 0) {
    ph |= 1ULL;
  } else if (hin < 0) {
    mh |= 1ULL;
  }
  pv = mh | ~(xv | ph);
  mv = ph & xv;
  return hout;
}

/// Scalar kernel: Hyyrö's blocked form of the recurrence, threading the
/// per-block horizontal delta `hin` through each column.  Always compiled,
/// always selectable; the SIMD kernels must match it bit for bit.
std::optional<std::int64_t> scalar_run(const MyersMasks& masks, SymView b,
                                       std::int64_t bound,
                                       std::uint64_t* work) {
  const std::int64_t m = masks.m;
  const auto n = static_cast<std::int64_t>(b.size());
  const std::size_t blocks = masks.blocks;

  // Vertical delta encoding (Hyyrö 2003): Pv bit set = +1, Mv bit set = -1.
  // Bits above m-1 in the last block are garbage but harmless: all carries
  // propagate upward only, and the score is read at bit (m-1).
  std::vector<std::uint64_t> pv(blocks, ~0ULL);
  std::vector<std::uint64_t> mv(blocks, 0);
  const std::uint64_t last_bit = 1ULL << ((m - 1) & 63);
  std::int64_t score = m;
  std::uint64_t words = 0;

  for (std::int64_t j = 0; j < n; ++j) {
    const std::uint64_t* eqv = masks.row(b[static_cast<std::size_t>(j)]);
    int hin = 1;  // top boundary row: d[0][j] = j
    for (std::size_t k = 0; k < blocks; ++k) {
      const std::uint64_t top = (k + 1 == blocks) ? last_bit : (1ULL << 63U);
      hin = block_step(eqv[k], pv[k], mv[k], hin, top);
    }
    score += hin;
    words += blocks;
    // score = d[m][j+1]; the remaining n-j-1 columns each lower the final
    // value by at most 1, so score - (n-j-1) <= d[m][n].
    if (bound >= 0 && score - (n - j - 1) > bound) {
      if (work != nullptr) *work += words;
      return std::nullopt;
    }
  }
  if (work != nullptr) *work += words;
  return score;
}

/// Banded form of the blocked recurrence: processes only the blocks whose
/// rows intersect [j+1-k, j+1+k] at text column j+1.  See the contract and
/// exactness argument in myers.hpp.  The score is anchored at the bottom
/// row of the window's last block and re-anchored (+64 per block, all-+1
/// deltas) as the window extends downward; the window moves by at most one
/// block per column, so the anchor never skips a block.
std::int64_t scalar_banded_run(const MyersMasks& masks, SymView b,
                               std::int64_t k, std::uint64_t* work) {
  const std::int64_t m = masks.m;
  const auto n = static_cast<std::int64_t>(b.size());
  const std::size_t blocks = masks.blocks;

  std::vector<std::uint64_t> pv(blocks, 0);
  std::vector<std::uint64_t> mv(blocks, 0);
  const std::uint64_t last_bit = 1ULL << ((m - 1) & 63);

  // Initial window: the blocks covering rows [1, min(m, 1+k)] at column 1.
  std::size_t last = std::min<std::size_t>(
      blocks - 1,
      static_cast<std::size_t>((std::min(m, 1 + k) - 1) / 64));
  for (std::size_t t = 0; t <= last; ++t) pv[t] = ~0ULL;
  std::int64_t anchor = std::min<std::int64_t>(m, 64 * static_cast<std::int64_t>(last + 1));
  std::int64_t score = anchor;  // D[anchor][0] = anchor
  std::uint64_t words = 0;

  for (std::int64_t j = 0; j < n; ++j) {
    const std::int64_t col = j + 1;
    const std::int64_t bot_row = std::min<std::int64_t>(m, col + k);
    const auto nl = static_cast<std::size_t>((bot_row - 1) / 64);
    if (nl > last) {
      // One new block enters at the bottom; all-+1 vertical deltas are the
      // Lipschitz upper bound on its column-(j) values.
      pv[nl] = ~0ULL;
      mv[nl] = 0;
      const std::int64_t next_anchor =
          std::min<std::int64_t>(m, 64 * static_cast<std::int64_t>(nl + 1));
      score += next_anchor - anchor;
      anchor = next_anchor;
      last = nl;
    }
    const std::int64_t top_row = std::max<std::int64_t>(1, col - k);
    const auto first = static_cast<std::size_t>((top_row - 1) / 64);

    const std::uint64_t* eqv = masks.row(b[static_cast<std::size_t>(j)]);
    int hin = 1;  // window-top boundary: +1 is exact at row 0, an upper
                  // bound (the max horizontal delta) below it
    for (std::size_t t = first; t <= last; ++t) {
      const std::uint64_t top = (t + 1 == blocks) ? last_bit : (1ULL << 63U);
      hin = block_step(eqv[t], pv[t], mv[t], hin, top);
    }
    score += hin;
    words += last - first + 1;
  }
  if (work != nullptr) *work += words;
  // m <= n + k (caller-checked gap), so the window bottom reached row m and
  // the anchor is m: score is the (upper-bounded) value at cell (m, n).
  return score;
}

/// Kernel selection: the widest compiled + host-supported + profitable
/// level.  A pure function of (active_isa(), blocks); every kernel returns
/// identical values and charges identical work, so the choice can never
/// perturb results or metering.
MyersRunFn pick_kernel(std::size_t blocks) {
  static const MyersRunFn avx512 = detail::myers_run_avx512();
  static const MyersRunFn avx2 = detail::myers_run_avx2();
  const Isa isa = active_isa();
  if (isa >= Isa::kAvx512 && avx512 != nullptr &&
      blocks >= detail::kAvx512MinBlocks) {
    return avx512;
  }
  if (isa >= Isa::kAvx2 && avx2 != nullptr &&
      blocks >= detail::kAvx2MinBlocks) {
    return avx2;
  }
  return &scalar_run;
}

/// Scalar lane kernel: the lanes of a prefix pass one after another, each
/// the blocked loop of `scalar_run` with no bound.
void scalar_lanes(const MyersMasks& masks, const detail::LanePass& pass) {
  constexpr std::size_t kLanes = detail::kPassLanes;
  const std::size_t blocks = masks.blocks;
  const std::uint64_t last_bit = 1ULL << ((masks.m - 1) & 63);
  std::vector<std::uint64_t> pv(blocks);
  std::vector<std::uint64_t> mv(blocks);
  for (std::size_t l = 0; l < pass.lanes; ++l) {
    std::fill(pv.begin(), pv.end(), ~0ULL);
    std::fill(mv.begin(), mv.end(), 0);
    std::int64_t score = masks.m;
    std::size_t next_keep = 0;
    for (std::size_t j = 0; j < pass.columns; ++j) {
      const std::uint64_t* eqv = masks.eq.data() + pass.rows[j * kLanes + l];
      int hin = 1;  // top boundary row: d[0][j] = j
      for (std::size_t k = 0; k < blocks; ++k) {
        const std::uint64_t top = (k + 1 == blocks) ? last_bit : (1ULL << 63U);
        hin = block_step(eqv[k], pv[k], mv[k], hin, top);
      }
      score += hin;
      pass.scores[(j + 1) * kLanes + l] = score;
      if (next_keep < pass.keep_count &&
          pass.keep[next_keep] == static_cast<std::int64_t>(j + 1)) {
        std::uint64_t* out = pass.kept + next_keep * 2 * blocks * kLanes + l;
        for (std::size_t k = 0; k < blocks; ++k) {
          out[k * kLanes] = pv[k];
          out[(blocks + k) * kLanes] = mv[k];
        }
        ++next_keep;
      }
    }
  }
}

/// Lane kernel selection: the widest compiled and host-supported level,
/// on `active_isa()` alone.
detail::MyersLanesFn pick_lanes() {
  static const detail::MyersLanesFn avx512 = detail::myers_lanes_avx512();
  static const detail::MyersLanesFn avx2 = detail::myers_lanes_avx2();
  const Isa isa = active_isa();
  if (isa >= Isa::kAvx512 && avx512 != nullptr) return avx512;
  if (isa >= Isa::kAvx2 && avx2 != nullptr) return avx2;
  return &scalar_lanes;
}

/// Thread-local Peq table cache.  The guess ladder, the batch escalation
/// loop, and the window oracles all re-run kernels against one pattern with
/// varying texts/bounds; rebuilding the O(|a|) mask table per call showed
/// up once kernel columns got cheap.  Keyed on full pattern content (hash
/// prefilter, then exact compare — a collision can slow us down, never
/// change a result).  Thread-local so simulator machine bodies on the pool
/// never share it.
struct CacheSlot {
  std::uint64_t hash = 0;
  SymString pattern;
  std::shared_ptr<const MyersMasks> masks;
  std::uint64_t stamp = 0;
};

constexpr std::size_t kCacheSlots = 4;

std::shared_ptr<const MyersMasks> masks_for(SymView a) {
  thread_local std::array<CacheSlot, kCacheSlots> cache;
  thread_local std::uint64_t clock = 0;
  const std::uint64_t h =
      hash_bytes(a.data(), a.size_bytes(), hash_mix(kFnvOffset, a.size()));
  CacheSlot* victim = &cache[0];
  for (CacheSlot& slot : cache) {
    if (slot.masks != nullptr && slot.hash == h &&
        slot.pattern.size() == a.size() &&
        std::equal(a.begin(), a.end(), slot.pattern.begin())) {
      slot.stamp = ++clock;
      return slot.masks;
    }
    if (slot.stamp < victim->stamp) victim = &slot;
  }
  victim->hash = h;
  victim->pattern.assign(a.begin(), a.end());
  victim->masks = std::make_shared<MyersMasks>(a);
  victim->stamp = ++clock;
  return victim->masks;
}

std::optional<std::int64_t> myers_run(SymView a, SymView b, std::int64_t bound,
                                      std::uint64_t* work) {
  // Keep the masks shared_ptr alive across the run: the kernel borrows the
  // table, and a recursive/other use of the cache could otherwise evict it.
  const std::shared_ptr<const MyersMasks> masks = masks_for(a);
  return pick_kernel(masks->blocks)(*masks, b, bound, work);
}

}  // namespace

MyersPrefixPass::MyersPrefixPass(SymView pattern) {
  MPCSD_EXPECTS(!pattern.empty());
  masks_ = std::make_unique<const MyersMasks>(pattern);
}

MyersPrefixPass::~MyersPrefixPass() = default;

void MyersPrefixPass::run(SymView chunk, std::span<const Lane> lanes,
                          std::span<const std::int64_t> keep) {
  constexpr std::size_t kLanes = detail::kPassLanes;
  static_assert(kLanes == kMaxLanes);
  const MyersMasks& masks = *masks_;
  MPCSD_EXPECTS(!lanes.empty() && lanes.size() <= kLanes);
  const auto chunk_len = static_cast<std::int64_t>(chunk.size());
  std::int64_t columns = 0;
  std::int64_t lo = chunk_len;  // the lanes read chunk[lo, hi)
  std::int64_t last = 0;        // the largest offset
  for (const Lane& lane : lanes) {
    MPCSD_EXPECTS(lane.offset >= 0 && lane.reach >= 0 &&
                  lane.offset + lane.reach <= chunk_len);
    columns = std::max(columns, lane.reach);
    lo = std::min(lo, lane.offset);
    last = std::max(last, lane.offset);
  }
  const std::int64_t hi = std::min(chunk_len, last + columns);
  for (std::size_t i = 0; i < keep.size(); ++i) {
    MPCSD_EXPECTS(keep[i] >= 1 && keep[i] < masks.m && keep[i] <= columns &&
                  (i == 0 || keep[i - 1] < keep[i]));
  }
  lanes_.assign(lanes.begin(), lanes.end());
  keep_.assign(keep.begin(), keep.end());

  // Each symbol's mask row is looked up once for the whole group and
  // handed to every lane whose columns cover its chunk position.
  const auto cols = static_cast<std::size_t>(columns);
  rows_.assign(cols * kLanes, masks.ids.size() * masks.stride);  // the zero row
  for (std::int64_t p = lo; p < hi; ++p) {
    const auto row = static_cast<std::uint64_t>(
        masks.row(chunk[static_cast<std::size_t>(p)]) - masks.eq.data());
    for (std::size_t l = 0; l < lanes.size(); ++l) {
      const std::int64_t j = p - lanes[l].offset;
      if (j >= 0 && j < columns) rows_[static_cast<std::size_t>(j) * kLanes + l] = row;
    }
  }

  scores_.assign((cols + 1) * kLanes, masks.m);
  kept_.assign(keep_.size() * 2 * masks.blocks * kLanes, 0);
  detail::LanePass pass;
  pass.lanes = lanes.size();
  pass.columns = cols;
  pass.rows = rows_.data();
  pass.keep = keep_.data();
  pass.keep_count = keep_.size();
  pass.scores = scores_.data();
  pass.kept = kept_.data();
  pick_lanes()(masks, pass);
}

MyersPrefixPass::Answer MyersPrefixPass::bounded(std::size_t lane, std::int64_t len,
                                                 std::int64_t k) const {
  constexpr std::size_t kLanes = detail::kPassLanes;
  const std::int64_t m = masks_->m;
  const std::size_t blocks = masks_->blocks;
  MPCSD_EXPECTS(lane < lanes_.size());
  MPCSD_EXPECTS(len >= 0 && len <= lanes_[lane].reach);
  const auto score = [this, lane](std::int64_t c) {
    return scores_[static_cast<std::size_t>(c) * kLanes + lane];
  };
  // edit_distance_myers_bounded's early outs, in its order.
  if (k < 0 || std::abs(len - m) > k) return {};
  if (len == 0) return {m, 0};

  if (len >= m) {
    // The pass's pattern over text[0, len): binary search for the first
    // column c in [1, len] with score(c) + c > k + len (len + 1: none).
    std::int64_t lo = 1;
    std::int64_t hi = len + 1;
    while (lo < hi) {
      const std::int64_t mid = lo + (hi - lo) / 2;
      if (score(mid) + mid > k + len) {
        hi = mid;
      } else {
        lo = mid + 1;
      }
    }
    const std::uint64_t words = static_cast<std::uint64_t>(std::min(lo, len)) * blocks;
    if (lo <= len) return {std::nullopt, words};
    return {score(len), words};
  }

  // text[0, len) is the pattern, ceil(len / 64) words per row of ours.
  const auto it = std::lower_bound(keep_.begin(), keep_.end(), len);
  MPCSD_EXPECTS(it != keep_.end() && *it == len);
  const std::uint64_t* pv =
      kept_.data() + 2 * blocks * kLanes * static_cast<std::size_t>(it - keep_.begin()) +
      lane;
  const std::uint64_t* mv = pv + blocks * kLanes;
  const auto len_blocks = static_cast<std::uint64_t>((len + 63) / 64);
  // D[i][len] + i is monotone, so a word whose last row stays within the
  // bound holds no abort row and only its popcount delta is needed.
  std::int64_t d = len;  // D[0][len]
  for (std::size_t w = 0; w < blocks; ++w) {
    const std::int64_t row0 = 64 * static_cast<std::int64_t>(w);
    const std::int64_t bits = std::min<std::int64_t>(64, m - row0);
    const std::uint64_t mask = bits == 64 ? ~0ULL : (1ULL << bits) - 1;
    const std::uint64_t p = pv[w * kLanes] & mask;
    const std::uint64_t q = mv[w * kLanes] & mask;
    const std::int64_t end = d + std::popcount(p) - std::popcount(q);
    if (end + row0 + bits <= k + m) {
      d = end;
      continue;
    }
    for (std::int64_t b = 0; b < bits; ++b) {
      d += static_cast<std::int64_t>((p >> b) & 1U) -
           static_cast<std::int64_t>((q >> b) & 1U);
      if (d + row0 + b + 1 > k + m) {
        return {std::nullopt, static_cast<std::uint64_t>(row0 + b + 1) * len_blocks};
      }
    }
  }
  MPCSD_ENSURES(d == score(len));
  return {d, static_cast<std::uint64_t>(m) * len_blocks};
}

Isa myers_dispatch_isa(std::size_t pattern_len) {
  const std::size_t blocks = (pattern_len + 63) / 64;
  const MyersRunFn fn = pick_kernel(blocks);
  if (fn == detail::myers_run_avx512()) return Isa::kAvx512;
  if (fn == detail::myers_run_avx2()) return Isa::kAvx2;
  return Isa::kScalar;
}

std::int64_t edit_distance_myers(SymView a, SymView b, std::uint64_t* work) {
  const auto m = static_cast<std::int64_t>(a.size());
  const auto n = static_cast<std::int64_t>(b.size());
  if (m == 0) return n;
  if (n == 0) return m;
  return *myers_run(a, b, -1, work);
}

std::optional<std::int64_t> edit_distance_myers_bounded(SymView a, SymView b,
                                                        std::int64_t k,
                                                        std::uint64_t* work) {
  const auto m = static_cast<std::int64_t>(a.size());
  const auto n = static_cast<std::int64_t>(b.size());
  if (k < 0) return std::nullopt;
  if (std::abs(n - m) > k) return std::nullopt;  // length gap lower bound
  if (m == 0) return n;
  if (n == 0) return m;
  const auto d = myers_run(a, b, k, work);
  if (!d.has_value() || *d > k) return std::nullopt;
  return d;
}

std::optional<std::int64_t> edit_distance_myers_banded(SymView a, SymView b,
                                                       std::int64_t k,
                                                       std::uint64_t* work) {
  if (a.size() > b.size()) std::swap(a, b);  // a = pattern (fewer blocks)
  const auto m = static_cast<std::int64_t>(a.size());
  const auto n = static_cast<std::int64_t>(b.size());
  if (k < 0) return std::nullopt;
  if (n - m > k) return std::nullopt;  // length gap lower bound
  if (m == 0) return n;
  const std::shared_ptr<const MyersMasks> masks = masks_for(a);
  const std::int64_t score = scalar_banded_run(*masks, b, k, work);
  if (score > k) return std::nullopt;
  return score;
}

}  // namespace mpcsd::seq
