#include "ulam_mpc/candidates.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdlib>
#include <span>
#include <utility>

#include "common/contracts.hpp"
#include "common/grid.hpp"

namespace mpcsd::ulam_mpc {

namespace {

/// No window key reaches it: sp and ep are at most n_bar.
constexpr std::uint64_t kEmptySlot = ~std::uint64_t{0};

}  // namespace

BlockEvaluator::BlockEvaluator(std::int64_t block_begin,
                               const std::vector<std::int64_t>& positions,
                               std::int64_t n_bar, CandidateStats* stats)
    : block_begin_(block_begin),
      block_len_(static_cast<std::int64_t>(positions.size())),
      n_bar_(n_bar),
      stats_(stats) {
  for (std::size_t p = 0; p < positions.size(); ++p) {
    if (positions[p] < 0) continue;
    pts_.push_back(seq::MatchPoint{static_cast<std::int64_t>(p), positions[p]});
    qs_.push_back(positions[p]);
  }
  std::sort(qs_.begin(), qs_.end());
  runs_ = seq::diagonal_runs(pts_);
}

bool BlockEvaluator::WindowSet::insert(std::uint64_t key) {
  if (2 * (size_ + 1) > slots_.size()) grow();
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t i = (key * 0x9E3779B97F4A7C15ULL) >> shift_;; i = (i + 1) & mask) {
    if (slots_[i] == key) return false;
    if (slots_[i] == kEmptySlot) {
      slots_[i] = key;
      ++size_;
      return true;
    }
  }
}

void BlockEvaluator::WindowSet::grow() {
  const std::size_t capacity = std::max<std::size_t>(64, 2 * slots_.size());
  std::vector<std::uint64_t> old = std::exchange(slots_, std::vector<std::uint64_t>(
                                                             capacity, kEmptySlot));
  shift_ = 64U - static_cast<unsigned>(std::countr_zero(capacity));
  size_ = 0;
  for (const std::uint64_t key : old) {
    if (key != kEmptySlot) insert(key);
  }
}

void BlockEvaluator::build_row(std::int64_t sp, std::int64_t cap) {
  row_.clear();
  for (const Tuple& run : runs_) {
    if (std::abs(run.window_begin - run.block_begin - sp) > cap) continue;
    const std::int64_t lo = std::max(run.window_begin, sp);
    if (lo >= run.window_end) continue;
    const std::int64_t p = run.block_begin + (lo - run.window_begin);
    row_.push_back(Tuple{p, run.block_end, lo - sp, run.window_end - sp, 0});
  }
  // Only the DP values are kept; each window charges its own share.
  combine_.solve(row_, block_len_, n_bar_ - sp);
  row_sp_ = sp;
  row_cap_ = cap;
}

void BlockEvaluator::evaluate(std::int64_t sp, std::int64_t ep, std::int64_t cap,
                              std::vector<Tuple>& out) {
  sp = std::clamp<std::int64_t>(sp, 0, n_bar_);
  ep = std::clamp<std::int64_t>(ep, sp, n_bar_);
  const std::uint64_t key =
      static_cast<std::uint64_t>(sp) * (static_cast<std::uint64_t>(n_bar_) + 2) +
      static_cast<std::uint64_t>(ep);
  if (!seen_.insert(key)) return;
  if (stats_ != nullptr) ++stats_->candidates_evaluated;

  // Match points with q in [sp, ep): the window's share of the feed.
  const auto slice = std::lower_bound(qs_.begin(), qs_.end(), ep) -
                     std::lower_bound(qs_.begin(), qs_.end(), sp);
  work_ += static_cast<std::uint64_t>(slice) + 1;
  const std::int64_t nb = ep - sp;
  if (std::abs(block_len_ - nb) > cap) {
    if (stats_ != nullptr) ++stats_->candidates_pruned;
    return;
  }

  // The row's runs that start before the window's end (nb, in row-local
  // q), cut there, are the window's clipped runs.
  if (sp != row_sp_ || cap != row_cap_) build_row(sp, cap);
  const std::span<const std::int64_t> dp = combine_.dp();
  std::int64_t d = std::max(block_len_, nb);  // the empty chain
  std::uint64_t band = 0;
  std::uint64_t clipped = 0;
  for (std::size_t i = 0; i < row_.size(); ++i) {
    const Tuple& run = row_[i];
    if (run.window_begin >= nb) continue;
    const std::int64_t q_end = std::min(run.window_end, nb);
    const std::int64_t p_end = run.block_begin + (q_end - run.window_begin);
    band += static_cast<std::uint64_t>(q_end - run.window_begin);
    ++clipped;
    d = std::min(d, dp[i] + std::max(block_len_ - p_end, nb - q_end));
  }
  work_ += band + seq::max_combine_work(clipped);
  if (d > cap) {
    if (stats_ != nullptr) ++stats_->candidates_pruned;
    return;
  }
  out.push_back(Tuple{block_begin_, block_begin_ + block_len_, sp, ep, d});
}

std::vector<Tuple> build_block_candidates(std::int64_t block_begin,
                                          const std::vector<std::int64_t>& positions,
                                          const CandidateParams& params,
                                          Pcg32& rng, CandidateStats* stats) {
  MPCSD_EXPECTS(params.eps_prime > 0.0);
  MPCSD_EXPECTS(params.n > 0 && params.n_bar >= 0);
  std::vector<Tuple> out;
  const auto b_len = static_cast<std::int64_t>(positions.size());
  if (b_len == 0) return out;

  const double eps = params.eps_prime;
  BlockEvaluator eval(block_begin, positions, params.n_bar, stats);

  // Locate the locally best window (lulam); its distance d* lower-bounds
  // the opt-induced distance u_i of this block.
  std::uint64_t lulam_work = 0;
  const auto lul = seq::local_ulam_from_match_points(eval.points(), b_len,
                                                     params.n_bar, &lulam_work);
  const std::int64_t d_star = lul.distance;
  // Always record the lulam window itself (it is an exact, useful tuple and
  // covers the d* == 0 case of Algorithm 1 line 2).
  if (!lul.window.empty() || d_star == 0) {
    eval.evaluate(lul.window.begin, lul.window.end, std::max<std::int64_t>(d_star, 1), out);
  }

  // Guess levels u = ceil((1+eps')^j); a level can only be the one whose
  // analysis applies when u_i ∈ [u, (1+eps')u), and u_i >= d*, so levels
  // with (1+eps')u < d* are skipped.  Section 4.1 caps the levels at
  // n^{1-x} = B (blocks whose opt image is even further are covered by the
  // anchored near-diagonal candidates plus the combine DP's gap charging);
  // we keep a 2x margin.
  const std::int64_t u_max = std::min(std::max(params.n, params.n_bar), 2 * b_len);
  for (const std::int64_t u : geometric_grid(u_max, eps)) {
    if (u == 0) continue;
    const auto u_hat = static_cast<std::int64_t>(
        std::ceil((1.0 + eps) * static_cast<double>(u)));
    if (u_hat < d_star) continue;
    const std::int64_t gap = std::max<std::int64_t>(
        static_cast<std::int64_t>(eps * static_cast<double>(u)), 1);
    const std::int64_t cap = 4 * u_hat + 2;

    if (u < ceil_div(b_len, 2)) {
      // Lemma 1 regime: grid around the lulam window.
      const std::int64_t gamma = lul.window.begin;
      const std::int64_t kappa = lul.window.end;
      for (std::int64_t sp = gamma - 2 * u_hat; sp <= gamma + 2 * u_hat; sp += gap) {
        for (std::int64_t ep = kappa - 2 * u_hat; ep <= kappa + 2 * u_hat; ep += gap) {
          if (ep < sp) continue;
          eval.evaluate(sp, ep, cap, out);
        }
      }
    } else {
      // Lemma 2 regime: hitting-set anchors.
      const double theta = std::min(
          1.0, params.theta_constant *
                   std::log(static_cast<double>(std::max<std::int64_t>(params.n, 3))) /
                   (eps * static_cast<double>(b_len)));
      // Unchanged characters in the same aligned run share a diagonal and
      // hence an identical candidate set; dedupe on the diagonal.  Sorted
      // dedupe (not a hash set) so the candidate stream cannot depend on
      // the standard library's bucket order.
      std::vector<std::int64_t> anchor_diagonals;
      for (const seq::MatchPoint& m : eval.points()) {
        if (!rng.bernoulli(theta)) continue;
        if (stats != nullptr) ++stats->anchors_sampled;
        anchor_diagonals.push_back(m.q - m.p);
      }
      std::sort(anchor_diagonals.begin(), anchor_diagonals.end());
      anchor_diagonals.erase(
          std::unique(anchor_diagonals.begin(), anchor_diagonals.end()),
          anchor_diagonals.end());
      if (stats != nullptr) stats->anchors_distinct += anchor_diagonals.size();
      for (const std::int64_t diag : anchor_diagonals) {
        const std::int64_t gamma2 = diag;          // q - p
        const std::int64_t kappa2 = diag + b_len;  // exclusive end
        for (std::int64_t sp = gamma2 - u_hat; sp <= gamma2 + u_hat; sp += gap) {
          for (std::int64_t ep = std::max(kappa2 - u_hat, sp); ep <= kappa2 + u_hat;
               ep += gap) {
            eval.evaluate(sp, ep, cap, out);
          }
        }
      }
    }
  }

  if (stats != nullptr) stats->work += eval.work() + lulam_work;
  return out;
}

}  // namespace mpcsd::ulam_mpc
