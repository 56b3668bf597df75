#include "seq/combine.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <limits>
#include <utility>

#include "common/contracts.hpp"
#include "common/fenwick.hpp"

namespace mpcsd::seq {

namespace {

constexpr std::int64_t kInf = std::numeric_limits<std::int64_t>::max() / 4;

std::int64_t gap(GapCost g, std::int64_t ds, std::int64_t dt) {
  return g == GapCost::kMax ? std::max(ds, dt) : ds + dt;
}

void sort_tuples(std::vector<Tuple>& tuples) {
  std::sort(tuples.begin(), tuples.end(), [](const Tuple& a, const Tuple& b) {
    if (a.block_begin != b.block_begin) return a.block_begin < b.block_begin;
    if (a.window_begin != b.window_begin) return a.window_begin < b.window_begin;
    if (a.window_end != b.window_end) return a.window_end < b.window_end;
    return a.distance < b.distance;
  });
}

void validate(std::span<const Tuple> tuples, std::int64_t n, std::int64_t n_bar) {
  for (const Tuple& t : tuples) {
    MPCSD_EXPECTS(0 <= t.block_begin && t.block_begin < t.block_end && t.block_end <= n);
    MPCSD_EXPECTS(0 <= t.window_begin && t.window_begin <= t.window_end &&
                  t.window_end <= n_bar);
    MPCSD_EXPECTS(t.distance >= 0);
  }
}

std::int64_t finish(std::span<const Tuple> tuples,
                    const std::vector<std::int64_t>& dp, GapCost g,
                    std::int64_t n, std::int64_t n_bar) {
  std::int64_t best = gap(g, n, n_bar);  // use no tuple at all
  for (std::size_t a = 0; a < tuples.size(); ++a) {
    if (dp[a] >= kInf) continue;
    best = std::min(best, dp[a] + gap(g, n - tuples[a].block_end,
                                      n_bar - tuples[a].window_end));
  }
  return best;
}

/// Both fast solvers sort (key, tuple index) pairs packed into one word,
/// key in the high half: a plain integer sort instead of an indirect one.
/// Keys are positions in [0, n + n_bar] and indices are below 2^32.
constexpr std::uint64_t kLow32 = 0xFFFFFFFFULL;

std::uint64_t pack(std::int64_t key, std::size_t index) {
  return (static_cast<std::uint64_t>(key) << 32U) | index;
}
std::int64_t packed_key(std::uint64_t word) {
  return static_cast<std::int64_t>(word >> 32U);
}
std::size_t packed_index(std::uint64_t word) {
  return static_cast<std::size_t>(word & kLow32);
}

/// The packing precondition of both fast solvers.
void expect_packable(std::int64_t n, std::int64_t n_bar, std::size_t m) {
  MPCSD_EXPECTS(n >= 0 && n_bar >= 0 && m <= kLow32);
  MPCSD_EXPECTS(static_cast<std::uint64_t>(n) + static_cast<std::uint64_t>(n_bar) <=
                kLow32);
}

/// Stable LSD radix sort of packed words by key: 8-bit digits over the
/// bits of max_key - min_key, one read of the words fills every pass's
/// histogram, and a pass is skipped when all words share its digit.
/// Callers push words in index order, so the result is the order a
/// full-word std::sort gives.  `scratch` is the second buffer the words
/// ping-pong through.
void radix_sort_packed(std::vector<std::uint64_t>& words,
                       std::vector<std::uint64_t>& scratch) {
  const std::size_t m = words.size();
  if (m < 2) return;
  std::uint64_t min_key = words[0] >> 32U;
  std::uint64_t max_key = min_key;
  for (const std::uint64_t w : words) {
    min_key = std::min(min_key, w >> 32U);
    max_key = std::max(max_key, w >> 32U);
  }
  const auto passes = static_cast<int>((std::bit_width(max_key - min_key) + 7) / 8);
  if (passes == 0) return;  // one key: index order is already sorted
  std::array<std::array<std::uint32_t, 256>, 4> counts{};  // m < 2^32
  for (const std::uint64_t w : words) {
    const std::uint64_t key = (w >> 32U) - min_key;
    for (int p = 0; p < passes; ++p) ++counts[p][(key >> (8 * p)) & 0xFFU];
  }
  scratch.resize(m);
  for (int p = 0; p < passes; ++p) {
    const auto digit = [min_key, shift = 8 * p](std::uint64_t w) {
      return static_cast<std::size_t>((((w >> 32U) - min_key) >> shift) & 0xFFU);
    };
    auto& offsets = counts[p];
    if (offsets[digit(words[0])] == m) continue;
    std::uint32_t sum = 0;
    for (std::uint32_t& c : offsets) sum += std::exchange(c, sum);
    for (const std::uint64_t w : words) scratch[offsets[digit(w)]++] = w;
    words.swap(scratch);
  }
}

/// Fast kSum solver: one Fenwick sweep in (insert by r, query by l) order.
/// Transition cost (l-r') + (gamma-kappa') decomposes as
/// (l+gamma) + (D[b] - r' - kappa'), needing r' <= l and kappa' <= gamma.
void solve_sum_fast(const std::vector<Tuple>& tuples, std::vector<std::int64_t>& dp) {
  const std::size_t m = tuples.size();
  std::vector<std::uint64_t> words;
  std::vector<std::uint64_t> scratch;
  words.reserve(m);

  // kappa ranks: rank[i] indexes tuple i's window_end among the distinct
  // kappas, read off one pass over the (window_end, i) words in key order.
  for (std::size_t i = 0; i < m; ++i) words.push_back(pack(tuples[i].window_end, i));
  radix_sort_packed(words, scratch);
  std::vector<std::int64_t> kappas;
  std::vector<std::uint32_t> rank(m);
  for (const std::uint64_t w : words) {
    if (kappas.empty() || kappas.back() != packed_key(w)) kappas.push_back(packed_key(w));
    rank[packed_index(w)] = static_cast<std::uint32_t>(kappas.size() - 1);
  }

  words.clear();
  for (std::size_t i = 0; i < m; ++i) words.push_back(pack(tuples[i].block_end, i));
  radix_sort_packed(words, scratch);  // insertion order: by block_end

  FenwickMin<std::int64_t> fen(kappas.size());
  std::size_t ins = 0;
  for (std::size_t a = 0; a < m; ++a) {  // tuples sorted by block_begin
    while (ins < m && packed_key(words[ins]) <= tuples[a].block_begin) {
      const std::size_t b = packed_index(words[ins++]);
      // dp[b] is final: block_begin[b] < block_end[b] <= block_begin[a]
      fen.update(rank[b], dp[b] - tuples[b].block_end - tuples[b].window_end);
    }
    const auto pos = std::upper_bound(kappas.begin(), kappas.end(),
                                      tuples[a].window_begin) -
                     kappas.begin();
    if (pos > 0) {
      const std::int64_t best = fen.prefix_min(static_cast<std::size_t>(pos - 1));
      if (best < kInf) {
        dp[a] = std::min(dp[a], tuples[a].block_begin + tuples[a].window_begin +
                                    best + tuples[a].distance);
      }
    }
  }
}

/// Whether the dense kSum sweep's arrays, (n_bar + 1) + (n + 2) + T words,
/// fit in the scratch of 2·T tuples the combine round charges for T = m
/// tuples.
bool sum_sweep_fits(std::int64_t n, std::int64_t n_bar, std::size_t m) {
  const auto words = static_cast<std::uint64_t>(n_bar) + 1 +
                     static_cast<std::uint64_t>(n) + 2 + m;
  return words * sizeof(std::int64_t) <= 2 * m * sizeof(Tuple);
}

/// Whether the dense kSum sweep, O(T + n + E·n_bar) for E distinct
/// block_begins, costs no more than the Fenwick's T·⌈log2 T⌉:
/// E·(n_bar + 1) + n <= T·⌈log2 T⌉.
bool sum_sweep_pays(std::int64_t n, std::int64_t n_bar, std::size_t m,
                    std::size_t begins) {
  const auto log_m = static_cast<std::uint64_t>(std::bit_width(m - 1));
  return begins * (static_cast<std::uint64_t>(n_bar) + 1) + static_cast<std::uint64_t>(n) <=
         m * log_m;
}

/// The kSum DP as one sweep along s over a dense array: tuple b is
/// inserted once the sweep reaches r', at kappa' with D[b] - r' - kappa',
/// and tuple a reads best[gamma], the min over kappa' <= gamma, at l, so
/// every b with r' <= l is in and final (its own read ran at l' < r').
/// The inserts come in block_end order from one counting sort; `best` is
/// kept a prefix min by refolding it once per distinct l that follows an
/// insert, from the lowest kappa' inserted until it stops changing past
/// the highest.
void solve_sum_dense(std::span<const Tuple> tuples, std::int64_t n, std::int64_t n_bar,
                     std::vector<std::int64_t>& dp) {
  const std::size_t m = tuples.size();
  std::vector<std::uint32_t> order(m);  // tuple indices by block_end
  {
    std::vector<std::uint32_t> next(static_cast<std::size_t>(n) + 2, 0);
    for (const Tuple& t : tuples) ++next[static_cast<std::size_t>(t.block_end) + 1];
    for (std::size_t r = 1; r < next.size(); ++r) next[r] += next[r - 1];
    for (std::size_t i = 0; i < m; ++i) {
      order[next[static_cast<std::size_t>(tuples[i].block_end)]++] =
          static_cast<std::uint32_t>(i);
    }
  }
  const auto columns = static_cast<std::size_t>(n_bar) + 1;
  std::vector<std::int64_t> best(columns, kInf);
  std::size_t ins = 0;
  for (std::size_t a = 0; a < m; ++a) {  // tuples sorted by block_begin
    const Tuple& ta = tuples[a];
    if (a == 0 || ta.block_begin != tuples[a - 1].block_begin) {
      std::size_t lo = columns;
      std::size_t hi = 0;
      for (; ins < m && tuples[order[ins]].block_end <= ta.block_begin; ++ins) {
        const Tuple& tb = tuples[order[ins]];
        const auto kappa = static_cast<std::size_t>(tb.window_end);
        best[kappa] = std::min(best[kappa], dp[order[ins]] - tb.block_end - tb.window_end);
        lo = std::min(lo, kappa);
        hi = std::max(hi, kappa);
      }
      // Past hi, an unchanged cell at or below its refolded left neighbour
      // ends the refold: every later cell was already at or below it.
      for (std::size_t g = lo + 1; g < columns; ++g) {
        if (g > hi && best[g] <= best[g - 1]) break;
        best[g] = std::min(best[g], best[g - 1]);
      }
    }
    const std::int64_t by = best[static_cast<std::size_t>(ta.window_begin)];
    if (by < kInf) {
      dp[a] = std::min(dp[a], ta.block_begin + ta.window_begin + by + ta.distance);
    }
  }
}

/// Segments this short run the O(len²) update rule instead of splitting:
/// below it the quadratic scan beats the per-cross sorts.
constexpr std::size_t kQuadraticLeaf = 64;

/// The distinct block boundaries of block_begin-sorted tuples: the values
/// among their block_begins and `ends`' keys (their block_ends, sorted).
std::size_t distinct_boundaries(std::span<const Tuple> tuples,
                                std::span<const std::uint64_t> ends) {
  std::size_t count = 0;
  std::int64_t last = -1;
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < tuples.size() || j < ends.size()) {
    const bool begin_next = j == ends.size() ||
                            (i < tuples.size() && tuples[i].block_begin <= packed_key(ends[j]));
    const std::int64_t p = begin_next ? tuples[i++].block_begin : packed_key(ends[j++]);
    if (p != last) ++count;
    last = p;
  }
  return count;
}

/// Whether the sweep's dense arrays, 3·(n + n_bar + 1) words, fit in the
/// scratch of 2·T tuples the combine round charges for T = m tuples.
bool sweep_fits(std::int64_t n, std::int64_t n_bar, std::size_t m) {
  const auto span = static_cast<std::uint64_t>(n) + static_cast<std::uint64_t>(n_bar);
  return 3 * (span + 1) * sizeof(std::int64_t) <= 2 * m * sizeof(Tuple);
}

/// Whether the sweep, O(T + E·(n + n_bar)) for E distinct block
/// boundaries, costs no more than the CDQ's T·⌈log2 T⌉²:
/// E·(n + n_bar + 2) <= T·⌈log2 T⌉².
bool sweep_pays(std::int64_t n, std::int64_t n_bar, std::size_t m,
                std::size_t boundaries) {
  const auto span = static_cast<std::uint64_t>(n) + static_cast<std::uint64_t>(n_bar);
  const auto log_m = static_cast<std::uint64_t>(std::bit_width(m - 1));
  return boundaries <= m * log_m * log_m / (span + 2);
}

/// f(g) <- min f[max(0, g - delta), g] in place, in O(|f|): van Herk /
/// Gil-Werman over blocks of delta + 1 cells.  A window spans the tail of
/// one block (`tail`: each cell's min up to its block's end) and the head
/// of the next (a running min from the block's start); a window that
/// starts before 0 is the head alone.
void dilate(std::vector<std::int64_t>& f, std::vector<std::int64_t>& tail,
            std::int64_t delta) {
  const std::size_t size = f.size();
  if (delta <= 0) return;
  const auto shift = static_cast<std::size_t>(delta);
  const std::size_t width = shift + 1;
  for (std::size_t start = 0; start < size; start += width) {
    std::size_t g = std::min(start + width, size) - 1;
    tail[g] = f[g];
    while (g-- > start) tail[g] = std::min(f[g], tail[g + 1]);
  }
  std::int64_t head = kInf;
  std::size_t offset = 0;  // g - (its block's start)
  for (std::size_t g = 0; g < size; ++g) {
    head = offset == 0 ? f[g] : std::min(head, f[g]);
    f[g] = g >= shift ? std::min(tail[g - shift], head) : head;
    offset = offset + 1 == width ? 0 : offset + 1;
  }
}

/// The kMax DP as one sweep along s: tuple b is inserted at p = r' and
/// tuple a queried at p = l, after the inserts at the same p, so every b
/// with r' <= l is in and its D[b] is final (its own query ran at l' < r').
/// The max gap splits on the diagonal as in the CDQ:
///   case A (diag_b <= diag_a, cost l - r', needs kappa' <= gamma): a dense
///     array f over s̄'s positions.  At sweep position p, b serves exactly
///     the gammas in [kappa', kappa' + p - r'] (the case-A condition), so
///     f(gamma) = min D[b] - r' over those b, and advancing the sweep by
///     delta dilates f: one O(n_bar) window min.
///   case B (diag_b > diag_a, cost gamma - kappa', needs r' <= l, which the
///     sweep already gives): a dense array over diag + n_bar holding
///     D[b] - kappa', kept as a suffix min that is refolded once per query
///     position after fresh inserts.
/// `ends` holds (block_end, index) words sorted by block_end.
void solve_max_sweep(std::span<const Tuple> tuples, std::span<const std::uint64_t> ends,
                     std::int64_t n, std::int64_t n_bar, std::vector<std::int64_t>& dp) {
  const std::size_t m = tuples.size();
  const auto columns = static_cast<std::size_t>(n_bar) + 1;
  std::vector<std::int64_t> f(columns, kInf);
  std::vector<std::int64_t> tail(columns);
  std::vector<std::int64_t> diag(static_cast<std::size_t>(n) + columns, kInf);
  std::size_t folded = 0;  // diag[i] is a suffix min for every i >= folded
  std::size_t ins = 0;
  std::size_t q = 0;
  std::int64_t at = 0;  // the sweep position f is dilated to
  while (q < m) {
    const std::int64_t l = tuples[q].block_begin;
    const std::int64_t p = ins < m ? std::min(l, packed_key(ends[ins])) : l;
    dilate(f, tail, p - at);
    at = p;
    for (; ins < m && packed_key(ends[ins]) == p; ++ins) {
      const std::size_t b = packed_index(ends[ins]);
      const Tuple& tb = tuples[b];
      auto& cell = f[static_cast<std::size_t>(tb.window_end)];
      cell = std::min(cell, dp[b] - tb.block_end);
      const auto d = static_cast<std::size_t>(tb.block_end - tb.window_end + n_bar);
      diag[d] = std::min(diag[d], dp[b] - tb.window_end);
      folded = std::max(folded, d + 1);
    }
    if (l != p) continue;
    for (; folded > 1; --folded) {
      diag[folded - 2] = std::min(diag[folded - 2], diag[folded - 1]);
    }
    folded = 0;
    for (; q < m && tuples[q].block_begin == p; ++q) {
      const Tuple& ta = tuples[q];
      std::int64_t best = dp[q];
      const std::int64_t by_a = f[static_cast<std::size_t>(ta.window_begin)];
      if (by_a < kInf) best = std::min(best, ta.block_begin + by_a + ta.distance);
      const std::int64_t by_b =
          diag[static_cast<std::size_t>(ta.block_begin - ta.window_begin + n_bar) + 1];
      if (by_b < kInf) best = std::min(best, ta.window_begin + by_b + ta.distance);
      dp[q] = best;
    }
  }
}

/// `combine_tuples`' kMax path on block_begin-sorted tuples: the sweep when
/// it fits and pays, else the CDQ.  Both charge `max_combine_work(T)`.
std::int64_t solve_max(std::span<const Tuple> tuples, std::int64_t n,
                       std::int64_t n_bar, std::uint64_t* work) {
  const std::size_t m = tuples.size();
  expect_packable(n, n_bar, m);
  validate(tuples, n, n_bar);
  std::size_t begins = 0;  // distinct block_begins: at most the boundaries
  for (std::size_t a = 0; a < m; ++a) {
    begins += a == 0 || tuples[a].block_begin != tuples[a - 1].block_begin ? 1 : 0;
  }
  if (m < 2 || !sweep_fits(n, n_bar, m) || !sweep_pays(n, n_bar, m, begins)) {
    return MaxCombineSolver{}.solve(tuples, n, n_bar, work);
  }
  std::vector<std::uint64_t> ends;  // the sweep's insertion order
  ends.reserve(m);
  for (std::size_t i = 0; i < m; ++i) ends.push_back(pack(tuples[i].block_end, i));
  if (!std::is_sorted(ends.begin(), ends.end())) {  // already so for block partitions
    std::vector<std::uint64_t> scratch;
    radix_sort_packed(ends, scratch);
  }
  if (!sweep_pays(n, n_bar, m, distinct_boundaries(tuples, ends))) {
    return MaxCombineSolver{}.solve(tuples, n, n_bar, work);
  }
  std::vector<std::int64_t> dp(m);  // the start gaps, as the CDQ seeds them
  for (std::size_t a = 0; a < m; ++a) {
    dp[a] = std::max(tuples[a].block_begin, tuples[a].window_begin) + tuples[a].distance;
  }
  solve_max_sweep(tuples, ends, n, n_bar, dp);
  if (work != nullptr) *work += max_combine_work(m);
  return finish(tuples, dp, GapCost::kMax, n, n_bar);
}

}  // namespace

std::uint64_t max_combine_work(std::uint64_t m) {
  if (m < 2) return 0;
  const auto k = static_cast<std::uint64_t>(std::bit_width(m) - 1);
  return 10 * (m * (k + 2) - (std::uint64_t{2} << k));
}

// Fast kMax solver: divide-and-conquer on the block order.  The max gap
// splits on the diagonal diag_b = r'-kappa' vs diag_a = l-gamma:
//   case A (diag_b <= diag_a): cost l - r', needs kappa' <= gamma
//     (r' <= l is implied);
//   case B (diag_b >  diag_a): cost gamma - kappa', needs r' <= l
//     (kappa' <= gamma is implied).
std::int64_t MaxCombineSolver::solve(std::span<const Tuple> tuples, std::int64_t n,
                                     std::int64_t n_bar, std::uint64_t* work) {
  const std::size_t m = tuples.size();
  expect_packable(n, n_bar, m);
  validate(tuples, n, n_bar);
  tuples_ = tuples;
  diag_shift_ = n_bar;
  dp_.resize(m);
  for (std::size_t a = 0; a < m; ++a) {
    MPCSD_EXPECTS(a == 0 || tuples[a - 1].block_begin <= tuples[a].block_begin);
    dp_[a] = std::max(tuples[a].block_begin, tuples[a].window_begin) + tuples[a].distance;
  }
  solve_range(0, m);
  tuples_ = {};
  if (work != nullptr) *work += max_combine_work(m);
  return finish(tuples, dp_, GapCost::kMax, n, n_bar);
}

/// True when some tuple of [lo, hi) may precede another one: with
/// block_begin sorted, that needs a block_end at or before the last begin.
/// Otherwise (e.g. every tuple comes from one block) the whole subtree
/// is a no-op.
bool MaxCombineSolver::has_chainable_pair(std::size_t lo, std::size_t hi) const {
  const std::int64_t last_begin = tuples_[hi - 1].block_begin;
  for (std::size_t b = lo; b < hi; ++b) {
    if (tuples_[b].block_end <= last_begin) return true;
  }
  return false;
}

void MaxCombineSolver::solve_range(std::size_t lo, std::size_t hi) {
  if (hi - lo <= 1 || !has_chainable_pair(lo, hi)) return;
  if (hi - lo <= kQuadraticLeaf) {
    solve_leaf(lo, hi);
    return;
  }
  // Split at the block boundary nearest the midpoint: tuples of one block
  // never chain, so a block kept whole is later skipped as a whole.  (The
  // segment holds two blocks at least, else it has no chainable pair.)
  std::size_t mid = lo + (hi - lo) / 2;
  const auto by_begin = [](const Tuple& x, const Tuple& y) {
    return x.block_begin < y.block_begin;
  };
  const auto block = std::equal_range(tuples_.begin() + static_cast<std::ptrdiff_t>(lo),
                                      tuples_.begin() + static_cast<std::ptrdiff_t>(hi),
                                      tuples_[mid], by_begin);
  const auto down = static_cast<std::size_t>(block.first - tuples_.begin());
  const auto up = static_cast<std::size_t>(block.second - tuples_.begin());
  mid = (down > lo && (mid - down <= up - mid || up == hi)) ? down : up;
  solve_range(lo, mid);
  cross(lo, mid, hi);
  solve_range(mid, hi);
}

void MaxCombineSolver::solve_leaf(std::size_t lo, std::size_t hi) {
  for (std::size_t a = lo + 1; a < hi; ++a) {
    const Tuple& ta = tuples_[a];
    std::int64_t best = dp_[a];
    for (std::size_t b = lo; b < a; ++b) {
      const Tuple& tb = tuples_[b];
      if (tb.block_end > ta.block_begin || tb.window_end > ta.window_begin) continue;
      best = std::min(best, dp_[b] + gap(GapCost::kMax, ta.block_begin - tb.block_end,
                                         ta.window_begin - tb.window_end) +
                                ta.distance);
    }
    dp_[a] = best;
  }
}

void MaxCombineSolver::cross(std::size_t lo, std::size_t mid, std::size_t hi) {
  const auto point_diag = [this](std::size_t b) {
    return tuples_[b].block_end - tuples_[b].window_end;
  };
  const auto query_diag = [this](std::size_t a) {
    return tuples_[a].block_begin - tuples_[a].window_begin;
  };

  // Shared diag compression for the segment (point and query diags):
  // rank_[i - lo] is the rank of tuple i's diag among the segment's
  // distinct diags.  Diags lie in [-n_bar, n], shifted by n_bar to pack.
  keys_.clear();
  for (std::size_t b = lo; b < mid; ++b) {
    keys_.push_back(pack(point_diag(b) + diag_shift_, b));
  }
  for (std::size_t a = mid; a < hi; ++a) {
    keys_.push_back(pack(query_diag(a) + diag_shift_, a));
  }
  radix_sort_packed(keys_, scratch_);
  rank_.resize(hi - lo);
  std::uint32_t rank = 0;
  for (std::size_t i = 0; i < keys_.size(); ++i) {
    if (i > 0 && packed_key(keys_[i]) != packed_key(keys_[i - 1])) ++rank;
    rank_[packed_index(keys_[i]) - lo] = rank;
  }
  const std::size_t ranks = std::size_t{rank} + 1;
  const auto rank_of = [this, lo](std::size_t i) {
    return std::size_t{rank_[i - lo]};
  };

  // Case A: insert by kappa', query by gamma; prefix-min over diag (a's
  // own rank is the last one with diag_b <= diag_a).
  keys_.clear();
  for (std::size_t b = lo; b < mid; ++b) keys_.push_back(pack(tuples_[b].window_end, b));
  radix_sort_packed(keys_, scratch_);
  queries_.clear();
  for (std::size_t a = mid; a < hi; ++a) {
    queries_.push_back(pack(tuples_[a].window_begin, a));
  }
  radix_sort_packed(queries_, scratch_);
  fenwick_.reset(ranks);
  std::size_t li = 0;
  for (const std::uint64_t query : queries_) {
    while (li < keys_.size() && packed_key(keys_[li]) <= packed_key(query)) {
      const std::size_t b = packed_index(keys_[li++]);
      fenwick_.update(rank_of(b), dp_[b] - tuples_[b].block_end);
    }
    const std::size_t a = packed_index(query);
    const std::int64_t best = fenwick_.prefix_min(rank_of(a));
    if (best < kInf) {
      dp_[a] = std::min(dp_[a], tuples_[a].block_begin + best + tuples_[a].distance);
    }
  }

  // Case B: insert by r', query by l (the right half is already in l
  // order); suffix-min over diag (reversed ranks).
  keys_.clear();
  for (std::size_t b = lo; b < mid; ++b) keys_.push_back(pack(tuples_[b].block_end, b));
  radix_sort_packed(keys_, scratch_);
  fenwick_.reset(ranks);
  li = 0;
  for (std::size_t a = mid; a < hi; ++a) {
    while (li < keys_.size() && packed_key(keys_[li]) <= tuples_[a].block_begin) {
      const std::size_t b = packed_index(keys_[li++]);
      fenwick_.update(ranks - 1 - rank_of(b), dp_[b] - tuples_[b].window_end);
    }
    // diag_b > diag_a  <=>  reversed rank < ranks - 1 - rank_of(a)
    const std::size_t r = rank_of(a);
    if (r + 1 < ranks) {
      const std::int64_t best = fenwick_.prefix_min(ranks - 2 - r);
      if (best < kInf) {
        dp_[a] = std::min(dp_[a], tuples_[a].window_begin + best + tuples_[a].distance);
      }
    }
  }
}

std::int64_t combine_tuples_naive(std::vector<Tuple> tuples, std::int64_t n,
                                  std::int64_t n_bar, const CombineOptions& options,
                                  std::uint64_t* work) {
  validate(tuples, n, n_bar);
  sort_tuples(tuples);
  const std::size_t m = tuples.size();
  std::vector<std::int64_t> dp(m, kInf);
  for (std::size_t a = 0; a < m; ++a) {
    const Tuple& ta = tuples[a];
    dp[a] = gap(options.gap, ta.block_begin, ta.window_begin) + ta.distance;
    for (std::size_t b = 0; b < a; ++b) {
      const Tuple& tb = tuples[b];
      if (tb.block_end > ta.block_begin) continue;
      std::int64_t cost;
      if (tb.window_end <= ta.window_begin) {
        cost = gap(options.gap, ta.block_begin - tb.block_end,
                   ta.window_begin - tb.window_end);
      } else if (options.allow_overlap && options.gap == GapCost::kSum &&
                 tb.window_begin <= ta.window_begin) {
        // Overlapping windows: keep both, pay for deleting the common part
        // from the earlier tuple's output (Section 5.2.3).
        cost = (ta.block_begin - tb.block_end) + (tb.window_end - ta.window_begin);
      } else {
        continue;
      }
      dp[a] = std::min(dp[a], dp[b] + cost + ta.distance);
    }
  }
  if (work != nullptr) *work += m * m + m;
  return finish(tuples, dp, options.gap, n, n_bar);
}

void write_tuples(ByteWriter& writer, std::span<const Tuple> tuples) {
  writer.reserve(writer.size() + sizeof(std::uint64_t) + tuples.size() * sizeof(Tuple));
  writer.put<std::uint64_t>(tuples.size());
  for (const Tuple& t : tuples) writer.put(t);
}

std::vector<Tuple> read_all_tuples(ChainReader& reader) {
  std::vector<Tuple> out;
  // Every tuple takes sizeof(Tuple) of the bytes left, so this bound never
  // reallocates; batches never straddle sender payloads, so each batch is
  // one bulk copy.
  out.reserve(reader.remaining() / sizeof(Tuple));
  while (!reader.exhausted()) reader.append_to(out, reader.get<std::uint64_t>());
  return out;
}

std::vector<Tuple> read_all_tuples(const ByteChain& payload) {
  ChainReader reader(payload);
  return read_all_tuples(reader);
}

std::vector<Tuple> read_all_tuples(const Bytes& payload) {
  ByteChain chain;
  chain.add(ByteSpan(payload));
  return read_all_tuples(chain);
}

std::int64_t combine_tuples(std::vector<Tuple> tuples, std::int64_t n,
                            std::int64_t n_bar, const CombineOptions& options,
                            std::uint64_t* work) {
  if (!options.use_fast || options.allow_overlap) {
    return combine_tuples_naive(std::move(tuples), n, n_bar, options, work);
  }
  // The fast solvers need block_begin order only, and the answer does not
  // depend on the order within one block_begin.  The round-2 inboxes of
  // both pipelines arrive in block order and skip the sort.
  if (!std::is_sorted(tuples.begin(), tuples.end(), [](const Tuple& a, const Tuple& b) {
        return a.block_begin < b.block_begin;
      })) {
    sort_tuples(tuples);
  }
  if (options.gap == GapCost::kMax) return solve_max(tuples, n, n_bar, work);
  const std::size_t m = tuples.size();
  expect_packable(n, n_bar, m);
  validate(tuples, n, n_bar);
  std::vector<std::int64_t> dp(m, kInf);
  for (std::size_t a = 0; a < m; ++a) {
    dp[a] = gap(options.gap, tuples[a].block_begin, tuples[a].window_begin) +
            tuples[a].distance;
  }
  std::size_t begins = 0;  // distinct block_begins: the dense sweep's refolds
  for (std::size_t a = 0; a < m; ++a) {
    begins += a == 0 || tuples[a].block_begin != tuples[a - 1].block_begin ? 1 : 0;
  }
  if (m >= 2 && sum_sweep_fits(n, n_bar, m) && sum_sweep_pays(n, n_bar, m, begins)) {
    solve_sum_dense(tuples, n, n_bar, dp);
  } else {
    solve_sum_fast(tuples, dp);
  }
  if (work != nullptr) *work += m * 6;
  return finish(tuples, dp, options.gap, n, n_bar);
}

}  // namespace mpcsd::seq
