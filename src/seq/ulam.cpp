#include "seq/ulam.hpp"

#include <algorithm>
#include <cstdlib>
#include <limits>
#include <unordered_map>

#include "common/contracts.hpp"
#include "common/fenwick.hpp"
#include "seq/combine.hpp"
#include "seq/lis.hpp"

namespace mpcsd::seq {

namespace {

constexpr std::int64_t kInf = std::numeric_limits<std::int64_t>::max() / 4;

/// Chain boundary handling: `Global` pays max(prefix, suffix) gaps on both
/// strings; `Local` pays only the block-side gaps (the substring endpoints
/// gamma/kappa are chosen optimally for free).
enum class Boundary { kGlobal, kLocal };

std::int64_t start_cost(Boundary mode, const MatchPoint& m) {
  return mode == Boundary::kGlobal ? std::max(m.p, m.q) : m.p;
}

std::int64_t end_cost(Boundary mode, const MatchPoint& m, std::int64_t na,
                      std::int64_t nb) {
  return mode == Boundary::kGlobal
             ? std::max(na - 1 - m.p, nb - 1 - m.q)
             : na - 1 - m.p;
}

std::int64_t empty_chain_cost(Boundary mode, std::int64_t na, std::int64_t nb) {
  return mode == Boundary::kGlobal ? std::max(na, nb) : na;
}

/// Fenwick payload: DP value plus the first match index of the chain that
/// achieves it (needed to recover gamma for local Ulam).
struct Entry {
  std::int64_t val = kInf;
  std::int32_t first = -1;
  std::int32_t src = -1;  ///< the match-point index this value came from

  friend bool operator<(const Entry& a, const Entry& b) { return a.val < b.val; }
};

struct ChainDp {
  std::vector<std::int64_t> dp;
  std::vector<std::int32_t> first;
  std::vector<std::int32_t> pred;  ///< predecessor in the optimal chain (-1 = start)
};

/// Dense O(m²) chain DP.  Points must be sorted by p (strictly increasing).
ChainDp chain_dp_dense(const std::vector<MatchPoint>& pts, Boundary mode,
                       std::uint64_t* work) {
  const auto m = pts.size();
  ChainDp out;
  out.dp.resize(m);
  out.first.resize(m);
  out.pred.assign(m, -1);
  for (std::size_t i = 0; i < m; ++i) {
    out.dp[i] = start_cost(mode, pts[i]);
    out.first[i] = static_cast<std::int32_t>(i);
    for (std::size_t j = 0; j < i; ++j) {
      if (pts[j].q >= pts[i].q) continue;  // p order is implicit
      const std::int64_t cand =
          out.dp[j] + std::max(pts[i].p - pts[j].p - 1, pts[i].q - pts[j].q - 1);
      if (cand < out.dp[i]) {
        out.dp[i] = cand;
        out.first[i] = out.first[j];
        out.pred[i] = static_cast<std::int32_t>(j);
      }
    }
  }
  if (work != nullptr) *work += static_cast<std::uint64_t>(m) * m;
  return out;
}

/// Sparse O(m log² m) chain DP via divide-and-conquer on the p-order.
///
/// The transition cost max(p_i-p_j-1, q_i-q_j-1) splits on the diagonal
/// d = p - q:
///   case A (d_j <= d_i): cost = (p_i - 1) + (dp_j - p_j), needs q_j < q_i;
///   case B (d_j >  d_i): cost = (q_i - 1) + (dp_j - q_j), needs p_j < p_i.
/// In each cross step (finalised left half -> right half) case B's p
/// condition is structural and case A's p condition is implied by q and d,
/// so A reduces to a merge by q with a prefix-min Fenwick over d-ranks and
/// B to a suffix-min Fenwick over d-ranks.
class SparseChainSolver {
 public:
  SparseChainSolver(const std::vector<MatchPoint>& pts, Boundary mode,
                    std::uint64_t* work)
      : pts_(pts), work_(work) {
    const auto m = pts_.size();
    out_.dp.resize(m);
    out_.first.resize(m);
    out_.pred.assign(m, -1);
    for (std::size_t i = 0; i < m; ++i) {
      out_.dp[i] = start_cost(mode, pts_[i]);
      out_.first[i] = static_cast<std::int32_t>(i);
    }
    if (m > 0) solve(0, m);
  }

  ChainDp take() && { return std::move(out_); }

 private:
  void solve(std::size_t lo, std::size_t hi) {
    if (hi - lo <= 1) return;
    const std::size_t mid = lo + (hi - lo) / 2;
    solve(lo, mid);
    cross(lo, mid, hi);
    solve(mid, hi);
  }

  void cross(std::size_t lo, std::size_t mid, std::size_t hi) {
    const std::size_t len = hi - lo;
    if (work_ != nullptr) *work_ += len * 8;

    // Local d-rank compression for this segment.
    std::vector<std::int64_t> ds;
    ds.reserve(len);
    for (std::size_t i = lo; i < hi; ++i) ds.push_back(pts_[i].p - pts_[i].q);
    std::sort(ds.begin(), ds.end());
    ds.erase(std::unique(ds.begin(), ds.end()), ds.end());
    const std::size_t ranks = ds.size();
    auto rank_of = [&](std::size_t i) {
      return static_cast<std::size_t>(
          std::lower_bound(ds.begin(), ds.end(), pts_[i].p - pts_[i].q) -
          ds.begin());
    };

    // ---- Case A: merge by q, prefix-min Fenwick over d-rank. ----
    std::vector<std::size_t> left(mid - lo);
    std::vector<std::size_t> right(hi - mid);
    for (std::size_t i = 0; i < left.size(); ++i) left[i] = lo + i;
    for (std::size_t i = 0; i < right.size(); ++i) right[i] = mid + i;
    auto by_q = [&](std::size_t a, std::size_t b) { return pts_[a].q < pts_[b].q; };
    std::sort(left.begin(), left.end(), by_q);
    std::sort(right.begin(), right.end(), by_q);

    FenwickMin<Entry> fen_a(ranks, Entry{});
    std::size_t li = 0;
    for (const std::size_t i : right) {
      while (li < left.size() && pts_[left[li]].q < pts_[i].q) {
        const std::size_t j = left[li++];
        fen_a.update(rank_of(j), Entry{out_.dp[j] - pts_[j].p, out_.first[j],
                                       static_cast<std::int32_t>(j)});
      }
      const Entry e = fen_a.prefix_min(rank_of(i));
      if (e.val < kInf) {
        const std::int64_t cand = (pts_[i].p - 1) + e.val;
        if (cand < out_.dp[i]) {
          out_.dp[i] = cand;
          out_.first[i] = e.first;
          out_.pred[i] = e.src;
        }
      }
    }

    // ---- Case B: all left inserted, suffix-min via reversed d-rank. ----
    FenwickMin<Entry> fen_b(ranks, Entry{});
    for (std::size_t j = lo; j < mid; ++j) {
      fen_b.update(ranks - 1 - rank_of(j), Entry{out_.dp[j] - pts_[j].q, out_.first[j],
                                                 static_cast<std::int32_t>(j)});
    }
    for (std::size_t i = mid; i < hi; ++i) {
      const std::size_t r = rank_of(i);
      if (r + 1 >= ranks) continue;  // nothing with strictly larger d
      // reversed ranks [0, ranks-1-r-1] correspond to d-ranks > r
      const Entry e = fen_b.prefix_min(ranks - 2 - r);
      if (e.val < kInf) {
        const std::int64_t cand = (pts_[i].q - 1) + e.val;
        if (cand < out_.dp[i]) {
          out_.dp[i] = cand;
          out_.first[i] = e.first;
          out_.pred[i] = e.src;
        }
      }
    }
  }

  const std::vector<MatchPoint>& pts_;
  std::uint64_t* work_;
  ChainDp out_;
};

struct FinishResult {
  std::int64_t distance = 0;
  std::int32_t best_last = -1;   // -1 == empty chain
  std::int32_t best_first = -1;
};

FinishResult finish(const std::vector<MatchPoint>& pts, const ChainDp& chains,
                    Boundary mode, std::int64_t na, std::int64_t nb) {
  FinishResult best;
  best.distance = empty_chain_cost(mode, na, nb);
  for (std::size_t i = 0; i < pts.size(); ++i) {
    const std::int64_t total = chains.dp[i] + end_cost(mode, pts[i], na, nb);
    if (total < best.distance) {
      best.distance = total;
      best.best_last = static_cast<std::int32_t>(i);
      best.best_first = chains.first[i];
    }
  }
  return best;
}

LocalUlamResult recover_local(const std::vector<MatchPoint>& pts,
                              const FinishResult& fin, std::int64_t na,
                              std::int64_t nb) {
  LocalUlamResult out;
  out.distance = fin.distance;
  if (fin.best_last < 0) {
    out.window = Interval{0, 0};
    return out;
  }
  const MatchPoint& f = pts[static_cast<std::size_t>(fin.best_first)];
  const MatchPoint& l = pts[static_cast<std::size_t>(fin.best_last)];
  std::int64_t gamma = f.q - f.p;
  if (gamma < 0) gamma = 0;
  std::int64_t kappa = l.q + (na - l.p);  // exclusive end
  if (kappa > nb) kappa = nb;
  out.window = Interval{gamma, kappa};
  return out;
}

}  // namespace

std::vector<MatchPoint> match_points(SymView a, SymView b) {
  std::unordered_map<Symbol, std::int64_t> pos_in_b;
  pos_in_b.reserve(b.size() * 2);
  for (std::size_t j = 0; j < b.size(); ++j) {
    pos_in_b.emplace(b[j], static_cast<std::int64_t>(j));
  }
  std::vector<MatchPoint> pts;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (auto it = pos_in_b.find(a[i]); it != pos_in_b.end()) {
      pts.push_back(MatchPoint{static_cast<std::int64_t>(i), it->second});
    }
  }
  return pts;  // sorted by p by construction
}

std::int64_t ulam_distance(SymView a, SymView b, std::uint64_t* work) {
  MPCSD_EXPECTS(is_repeat_free(a));
  MPCSD_EXPECTS(is_repeat_free(b));
  return ulam_from_match_points(match_points(a, b),
                                static_cast<std::int64_t>(a.size()),
                                static_cast<std::int64_t>(b.size()), work);
}

std::int64_t ulam_distance_dense(SymView a, SymView b, std::uint64_t* work) {
  MPCSD_EXPECTS(is_repeat_free(a));
  MPCSD_EXPECTS(is_repeat_free(b));
  const auto pts = match_points(a, b);
  const auto chains = chain_dp_dense(pts, Boundary::kGlobal, work);
  return finish(pts, chains, Boundary::kGlobal,
                static_cast<std::int64_t>(a.size()),
                static_cast<std::int64_t>(b.size()))
      .distance;
}

LocalUlamResult local_ulam(SymView block, SymView t, std::uint64_t* work) {
  MPCSD_EXPECTS(is_repeat_free(block));
  MPCSD_EXPECTS(is_repeat_free(t));
  const auto pts = match_points(block, t);
  const auto chains = SparseChainSolver(pts, Boundary::kLocal, work).take();
  const auto fin = finish(pts, chains, Boundary::kLocal,
                          static_cast<std::int64_t>(block.size()),
                          static_cast<std::int64_t>(t.size()));
  return recover_local(pts, fin, static_cast<std::int64_t>(block.size()),
                       static_cast<std::int64_t>(t.size()));
}

LocalUlamResult local_ulam_dense(SymView block, SymView t, std::uint64_t* work) {
  MPCSD_EXPECTS(is_repeat_free(block));
  MPCSD_EXPECTS(is_repeat_free(t));
  const auto pts = match_points(block, t);
  const auto chains = chain_dp_dense(pts, Boundary::kLocal, work);
  const auto fin = finish(pts, chains, Boundary::kLocal,
                          static_cast<std::int64_t>(block.size()),
                          static_cast<std::int64_t>(t.size()));
  return recover_local(pts, fin, static_cast<std::int64_t>(block.size()),
                       static_cast<std::int64_t>(t.size()));
}

std::vector<Tuple> diagonal_runs(const std::vector<MatchPoint>& pts) {
  std::vector<Tuple> runs;
  std::size_t i = 0;
  while (i < pts.size()) {
    std::size_t j = i + 1;
    while (j < pts.size() && pts[j].p == pts[j - 1].p + 1 &&
           pts[j].q == pts[j - 1].q + 1) {
      ++j;
    }
    runs.push_back(Tuple{pts[i].p, pts[j - 1].p + 1, pts[i].q, pts[j - 1].q + 1, 0});
    i = j;
  }
  return runs;
}

std::int64_t ulam_from_match_points(const std::vector<MatchPoint>& pts,
                                    std::int64_t na, std::int64_t nb,
                                    std::uint64_t* work) {
  // Run-compressed chain DP: the max-gap combine over zero-distance run
  // tuples computes exactly the chain formula (start gap + max-gaps + end
  // gap), in O(R log^2 R) for R runs: Fenwick queries over the crosses,
  // whose radix sorts are linear.
  CombineOptions options;
  options.gap = GapCost::kMax;
  options.use_fast = true;
  return combine_tuples(diagonal_runs(pts), na, nb, options, work);
}

std::optional<std::int64_t> bounded_ulam_from_match_points(
    const std::vector<MatchPoint>& pts, std::int64_t na, std::int64_t nb,
    std::int64_t cap, std::uint64_t* work) {
  MPCSD_EXPECTS(cap >= 0);
  if (std::abs(na - nb) > cap) return std::nullopt;
  // Any alignment of cost <= cap only visits DP cells (i, j) with
  // |i - j| <= cap, so match points outside the band cannot participate in
  // an optimal chain of a distance-<=cap transformation.
  std::vector<MatchPoint> band;
  band.reserve(pts.size());
  for (const MatchPoint& m : pts) {
    if (std::abs(m.p - m.q) <= cap) band.push_back(m);
  }
  if (work != nullptr) *work += pts.size();
  const std::int64_t d = ulam_from_match_points(band, na, nb, work);
  if (d > cap) return std::nullopt;
  return d;
}

LocalUlamResult local_ulam_from_match_points(const std::vector<MatchPoint>& pts,
                                             std::int64_t na, std::int64_t nb,
                                             std::uint64_t* work) {
  const auto chains = SparseChainSolver(pts, Boundary::kLocal, work).take();
  const auto fin = finish(pts, chains, Boundary::kLocal, na, nb);
  return recover_local(pts, fin, na, nb);
}

UlamAlignment ulam_alignment(SymView a, SymView b, std::uint64_t* work) {
  MPCSD_EXPECTS(is_repeat_free(a));
  MPCSD_EXPECTS(is_repeat_free(b));
  const auto pts = match_points(a, b);
  const auto chains = SparseChainSolver(pts, Boundary::kGlobal, work).take();
  const auto fin = finish(pts, chains, Boundary::kGlobal,
                          static_cast<std::int64_t>(a.size()),
                          static_cast<std::int64_t>(b.size()));
  UlamAlignment out;
  out.distance = fin.distance;
  for (std::int32_t i = fin.best_last; i >= 0;
       i = chains.pred[static_cast<std::size_t>(i)]) {
    out.chain.push_back(pts[static_cast<std::size_t>(i)]);
  }
  std::reverse(out.chain.begin(), out.chain.end());
  return out;
}

LocalUlamResult local_ulam_bruteforce(SymView block, SymView t) {
  LocalUlamResult best;
  best.distance = static_cast<std::int64_t>(block.size());
  best.window = Interval{0, 0};
  const auto nb = static_cast<std::int64_t>(t.size());
  for (std::int64_t g = 0; g < nb; ++g) {
    for (std::int64_t k = g + 1; k <= nb; ++k) {
      const std::int64_t d = ulam_distance_dense(block, subview(t, {g, k}));
      if (d < best.distance) {
        best.distance = d;
        best.window = Interval{g, k};
      }
    }
  }
  return best;
}

}  // namespace mpcsd::seq
