#include "seq/approx_edit.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/contracts.hpp"
#include "common/grid.hpp"
#include "common/rng.hpp"
#include "seq/edit_distance.hpp"
#include "seq/edit_distance_fast.hpp"

namespace mpcsd::seq {

namespace {

constexpr std::int64_t kInf = std::numeric_limits<std::int64_t>::max() / 4;

struct Window {
  std::int64_t start = 0;
  std::int64_t len = 0;
};

/// Per-guess window-cover state: a-windows, deduped candidate b-windows, and
/// the per-a-window candidate lists with running distance estimates.
struct Cover {
  std::vector<Window> awin;
  std::vector<Window> bwin;
  std::vector<std::vector<std::int32_t>> cand;  ///< per a-window: bwin ids
  std::vector<std::vector<std::int64_t>> est;   ///< parallel to cand; kInf = unknown
};

/// Candidate lengths w +- g*(1+eps)^k: end slack below the start-grid
/// granularity g is already inside the cover budget, so the length grid
/// starts there.
std::vector<std::int64_t> candidate_lengths(std::int64_t w, std::int64_t t,
                                            std::int64_t g, double eps) {
  std::vector<std::int64_t> lens;
  lens.push_back(w);
  const std::int64_t max_delta = std::min(w - 1, t);
  double delta = static_cast<double>(std::max<std::int64_t>(g, 1));
  while (static_cast<std::int64_t>(delta) <= max_delta) {
    const auto d = static_cast<std::int64_t>(delta);
    lens.push_back(w - d);
    lens.push_back(w + d);
    delta *= (1.0 + eps);
  }
  std::sort(lens.begin(), lens.end());
  lens.erase(std::unique(lens.begin(), lens.end()), lens.end());
  while (!lens.empty() && lens.front() <= 0) lens.erase(lens.begin());
  return lens;
}

Cover build_cover(std::int64_t na, std::int64_t nb, std::int64_t w,
                  std::int64_t t, double eps) {
  Cover cover;
  for (std::int64_t s = 0; s < na; s += w) {
    cover.awin.push_back(Window{s, std::min(w, na - s)});
  }
  const auto d = static_cast<std::int64_t>(cover.awin.size());
  const std::int64_t g =
      std::max<std::int64_t>(1, static_cast<std::int64_t>(eps * static_cast<double>(t) /
                                                          static_cast<double>(d)));
  const auto lens = candidate_lengths(w, t, g, eps);

  std::unordered_map<std::uint64_t, std::int32_t> ids;
  cover.cand.resize(cover.awin.size());
  cover.est.resize(cover.awin.size());
  for (std::size_t i = 0; i < cover.awin.size(); ++i) {
    const std::int64_t diag = cover.awin[i].start;
    std::int64_t s0 = diag - t;
    if (s0 < 0) s0 = 0;
    s0 = (s0 / g) * g;  // align to the grid
    for (std::int64_t s = s0; s <= diag + t && s < nb; s += g) {
      for (std::int64_t len : lens) {
        if (s + len > nb) len = nb - s;
        if (len <= 0) continue;
        const std::uint64_t key =
            (static_cast<std::uint64_t>(s) << 32U) | static_cast<std::uint64_t>(len);
        auto [it, inserted] = ids.emplace(key, static_cast<std::int32_t>(cover.bwin.size()));
        if (inserted) cover.bwin.push_back(Window{s, len});
        cover.cand[i].push_back(it->second);
      }
    }
    auto& cands = cover.cand[i];
    std::sort(cands.begin(), cands.end());
    cands.erase(std::unique(cands.begin(), cands.end()), cands.end());
    cover.est[i].assign(cands.size(), kInf);
  }
  return cover;
}

/// Memoized bounded-distance oracle over the cover's nodes (a-windows then
/// b-windows).  A miss at cap c records the lower bound "distance > c" and
/// the pair is not re-attempted until the cap doubles past it, so the total
/// cost per pair telescopes to O(w * final_cap) with the early-abort band.
class PairOracle {
 public:
  PairOracle(SymView a, SymView b, const Cover& cover, std::uint64_t* work)
      : a_(a), b_(b), cover_(cover), work_(work) {}

  [[nodiscard]] SymView node_view(std::size_t v) const {
    const std::size_t d = cover_.awin.size();
    if (v < d) {
      const Window& w = cover_.awin[v];
      return subview(a_, {w.start, w.start + w.len});
    }
    const Window& w = cover_.bwin[v - d];
    return subview(b_, {w.start, w.start + w.len});
  }

  /// Exact distance when <= cap, nullopt otherwise.  May also return
  /// nullopt when only a lower bound lb with cap < 2*lb is known (the pair
  /// resolves at a later, larger cap) — callers treat nullopt as
  /// "unresolved at this threshold".
  std::optional<std::int64_t> query(std::size_t u, std::size_t v, std::int64_t cap) {
    if (u == v) return 0;
    const std::uint64_t key = (static_cast<std::uint64_t>(std::min(u, v)) << 32U) |
                              static_cast<std::uint64_t>(std::max(u, v));
    auto it = memo_.find(key);
    if (it != memo_.end()) {
      const Entry& e = it->second;
      if (e.exact) return e.value <= cap ? std::optional<std::int64_t>(e.value) : std::nullopt;
      if (cap < 2 * std::max<std::int64_t>(e.value, 1)) return std::nullopt;
    }
    const auto d = edit_distance_banded_fast(node_view(u), node_view(v), cap, work_);
    Entry e;
    if (d.has_value()) {
      e.exact = true;
      e.value = *d;
    } else {
      e.exact = false;
      e.value = cap;  // certified lower bound: distance > cap
    }
    memo_[key] = e;
    return d;
  }

 private:
  struct Entry {
    bool exact = false;
    std::int64_t value = 0;  ///< exact distance, or a certified lower bound
  };

  SymView a_;
  SymView b_;
  const Cover& cover_;
  std::uint64_t* work_;
  std::unordered_map<std::uint64_t, Entry> memo_;
};

bool all_resolved(const Cover& cover) {
  for (const auto& row : cover.est) {
    for (const std::int64_t e : row) {
      if (e >= kInf) return false;
    }
  }
  return true;
}

/// Shortest-path combine over (a-window index, b-position): pair edges use
/// the estimates, skip edges delete a whole window, insert edges advance the
/// b-position.  Unresolved pairs are simply absent.  Returns an upper bound
/// on ed(a, b).
std::int64_t combine(const Cover& cover, std::int64_t nb, std::uint64_t* work) {
  std::vector<std::int64_t> positions;
  positions.push_back(0);
  positions.push_back(nb);
  for (const Window& bw : cover.bwin) {
    positions.push_back(bw.start);
    positions.push_back(bw.start + bw.len);
  }
  std::sort(positions.begin(), positions.end());
  positions.erase(std::unique(positions.begin(), positions.end()), positions.end());
  std::unordered_map<std::int64_t, std::size_t> pos_index;
  pos_index.reserve(positions.size() * 2);
  for (std::size_t k = 0; k < positions.size(); ++k) pos_index.emplace(positions[k], k);

  const std::size_t np = positions.size();
  std::vector<std::int64_t> dp(np);
  for (std::size_t k = 0; k < np; ++k) dp[k] = positions[k];  // insert prefix

  std::vector<std::int64_t> next(np);
  for (std::size_t i = 0; i < cover.awin.size(); ++i) {
    std::fill(next.begin(), next.end(), kInf);
    for (std::size_t k = 0; k < np; ++k) {
      const std::int64_t v = dp[k] + cover.awin[i].len;  // delete window
      if (v < next[k]) next[k] = v;
    }
    for (std::size_t k = 0; k < cover.cand[i].size(); ++k) {
      const std::int64_t e = cover.est[i][k];
      if (e >= kInf) continue;
      const Window& bw = cover.bwin[static_cast<std::size_t>(cover.cand[i][k])];
      const std::size_t ks = pos_index.at(bw.start);
      const std::size_t ke = pos_index.at(bw.start + bw.len);
      const std::int64_t v = dp[ks] + e;
      if (v < next[ke]) next[ke] = v;
    }
    for (std::size_t k = 1; k < np; ++k) {  // insert relaxation
      const std::int64_t v = next[k - 1] + (positions[k] - positions[k - 1]);
      if (v < next[k]) next[k] = v;
    }
    std::swap(dp, next);
  }
  if (work != nullptr) *work += cover.awin.size() * np;
  return dp[pos_index.at(nb)];
}

}  // namespace

std::optional<std::int64_t> censored_exact_cap(std::int64_t na, std::int64_t nb,
                                               const ApproxEditParams& params) {
  if (na == 0 || nb == 0 || na > params.exact_cutoff ||
      nb > params.exact_cutoff || params.guess_limit <= 0) {
    return std::nullopt;
  }
  // Censored callers never use distances above ~guess_limit; the band with
  // early abort keeps this path at O(n·guess_limit) instead of O(n²).
  return std::min<std::int64_t>(na + nb, 2 * params.guess_limit + 2);
}

ApproxEditResult approx_edit_distance(SymView a, SymView b,
                                      const ApproxEditParams& params) {
  MPCSD_EXPECTS(params.epsilon > 0.0);
  ApproxEditResult out;
  const auto na = static_cast<std::int64_t>(a.size());
  const auto nb = static_cast<std::int64_t>(b.size());
  if (na == 0 || nb == 0) {
    out.distance = std::max(na, nb);
    out.exact = true;
    return out;
  }
  if (const auto lim = censored_exact_cap(na, nb, params)) {
    if (const auto d = edit_distance_banded_fast(a, b, *lim, &out.work)) {
      out.distance = *d;
      out.exact = true;
      return out;
    }
    // The true distance exceeds lim > guess_limit: return the trivial
    // upper bound, which also exceeds it, so the caller censors the pair.
    out.distance = std::max(na, nb);
    out.exact = false;
    return out;
  }
  if (na <= params.exact_cutoff && nb <= params.exact_cutoff) {
    out.distance = edit_distance_fast(a, b, &out.work);
    out.exact = true;
    return out;
  }

  const std::int64_t w = std::max<std::int64_t>(
      16, std::min(na, ipow_ceil(na, params.window_exponent)));
  const double eps = params.epsilon;
  std::int64_t best = std::max(na, nb);  // trivial transformation
  const auto guesses = geometric_grid(std::max(na, nb), eps);

  std::size_t guess_index = 0;
  for (const std::int64_t t : guesses) {
    ++guess_index;
    if (params.guess_limit > 0 && t > params.guess_limit) break;
    if (t == 0) {
      if (na == nb && std::equal(a.begin(), a.end(), b.begin())) {
        out.distance = 0;
        out.exact = true;
        return out;
      }
      continue;
    }
    const auto accept = static_cast<std::int64_t>(
        std::ceil(3.0 * (1.0 + 2.0 * eps) * static_cast<double>(t))) + 8;

    if (t <= w) {
      // Exact band: certifies the distance exactly when <= t.
      if (const auto d = edit_distance_banded_fast(a, b, t, &out.work)) {
        out.distance = std::min(best, *d);
        out.accepted_guess = t;
        out.exact = true;
        return out;
      }
      continue;
    }

    // Window cover for this guess.
    Cover cover = build_cover(na, nb, w, t, eps);
    PairOracle oracle(a, b, cover, &out.work);
    const std::size_t num_a = cover.awin.size();
    const std::size_t num_nodes = num_a + cover.bwin.size();

    // Representative certification only pays off at scale; below the
    // threshold every pair is resolved directly.
    const bool use_reps = num_nodes >= params.rep_min_nodes;
    std::vector<std::size_t> reps;
    if (use_reps) {
      const auto budget = static_cast<std::size_t>(
          params.rep_log_budget * std::log2(static_cast<double>(num_nodes) + 2.0));
      Pcg32 rng = derive_stream(params.seed, guess_index);
      for (std::size_t picked = 0; picked < budget; ++picked) {
        reps.push_back(rng.below(static_cast<std::uint32_t>(num_nodes)));
      }
      std::sort(reps.begin(), reps.end());
      reps.erase(std::unique(reps.begin(), reps.end()), reps.end());
    }

    std::int64_t guess_result = kInf;
    std::vector<std::int64_t> dz(num_nodes, -1);
    for (const std::int64_t tau : geometric_grid(2 * w, eps)) {
      if (tau == 0) continue;
      if (use_reps) {
        for (const std::size_t z : reps) {
          for (std::size_t v = 0; v < num_nodes; ++v) {
            dz[v] = oracle.query(z, v, 2 * tau).value_or(-1);
          }
          // Certify: a-windows within tau pair with candidates within 2tau
          // at cost d(i,z) + d(z,j) <= 3*tau.
          for (std::size_t i = 0; i < num_a; ++i) {
            if (dz[i] < 0 || dz[i] > tau) continue;
            for (std::size_t k = 0; k < cover.cand[i].size(); ++k) {
              const auto j = static_cast<std::size_t>(cover.cand[i][k]) + num_a;
              if (dz[j] < 0) continue;
              const std::int64_t bound = dz[i] + dz[j];
              if (bound < cover.est[i][k]) cover.est[i][k] = bound;
            }
          }
        }
      }
      // Direct resolution of still-unknown pairs at this threshold (the
      // oracle's doubling memo keeps re-attempts cheap).
      for (std::size_t i = 0; i < num_a; ++i) {
        for (std::size_t k = 0; k < cover.cand[i].size(); ++k) {
          if (cover.est[i][k] < kInf) continue;
          const auto j = static_cast<std::size_t>(cover.cand[i][k]) + num_a;
          if (const auto e = oracle.query(i, j, tau)) cover.est[i][k] = *e;
        }
      }

      guess_result = std::min(guess_result, combine(cover, nb, &out.work));
      if (guess_result <= accept) break;
      if (all_resolved(cover)) break;
    }

    if (guess_result < best) best = guess_result;
    if (guess_result <= accept) {
      out.distance = best;
      out.accepted_guess = t;
      return out;
    }
  }
  out.distance = best;
  out.accepted_guess = guesses.empty() ? 0 : guesses.back();
  return out;
}

}  // namespace mpcsd::seq
