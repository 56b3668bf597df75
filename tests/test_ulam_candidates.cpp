// Algorithm 1 (per-block Ulam candidate construction): tuple validity, the
// Lemma 1/2 locality structure, the Lemma 3 cover property evaluated
// against an explicit optimal alignment, and the run-level per-candidate
// evaluator against the point-level bounded Ulam engine.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <optional>
#include <set>
#include <string>
#include <utility>

#include "common/rng.hpp"
#include "core/workload.hpp"
#include "edit_mpc/candidates.hpp"
#include "seq/alignment.hpp"
#include "seq/edit_distance.hpp"
#include "seq/types.hpp"
#include "seq/ulam.hpp"
#include "ulam_mpc/candidates.hpp"

namespace mpcsd::ulam_mpc {
namespace {

std::vector<std::int64_t> positions_of(SymView block, SymView t) {
  std::unordered_map<Symbol, std::int64_t> pos;
  for (std::size_t j = 0; j < t.size(); ++j) pos.emplace(t[j], static_cast<std::int64_t>(j));
  std::vector<std::int64_t> out;
  for (const Symbol v : block) {
    const auto it = pos.find(v);
    out.push_back(it == pos.end() ? -1 : it->second);
  }
  return out;
}

std::vector<Tuple> run_block(SymView s, SymView t, std::int64_t begin,
                             std::int64_t end, double eps_prime,
                             std::uint64_t seed, CandidateStats* stats = nullptr) {
  CandidateParams params;
  params.eps_prime = eps_prime;
  params.theta_constant = 8.0;
  params.n = static_cast<std::int64_t>(s.size());
  params.n_bar = static_cast<std::int64_t>(t.size());
  Pcg32 rng = derive_stream(seed, 0xCAFE);
  return build_block_candidates(begin, positions_of(subview(s, {begin, end}), t),
                                params, rng, stats);
}

TEST(UlamCandidates, TupleDistancesAreExact) {
  const auto s = core::random_permutation(400, 1);
  const auto t = core::plant_edits(s, 30, 2, true).text;
  const auto tuples = run_block(s, t, 100, 200, 0.25, 3);
  ASSERT_FALSE(tuples.empty());
  for (const Tuple& tu : tuples) {
    EXPECT_EQ(tu.block_begin, 100);
    EXPECT_EQ(tu.block_end, 200);
    ASSERT_GE(tu.window_begin, 0);
    ASSERT_LE(tu.window_end, static_cast<std::int64_t>(t.size()));
    const auto exact = seq::ulam_distance(
        subview(s, {tu.block_begin, tu.block_end}),
        subview(t, {tu.window_begin, tu.window_end}));
    ASSERT_EQ(tu.distance, exact)
        << "window [" << tu.window_begin << "," << tu.window_end << ")";
  }
}

TEST(UlamCandidates, ExactCopyBlockYieldsZeroTuple) {
  const auto t = core::random_permutation(300, 4);
  // Block 50..120 of s IS t[50..120) (identical strings).
  const auto tuples = run_block(t, t, 50, 120, 0.25, 5);
  const bool has_zero = std::any_of(tuples.begin(), tuples.end(), [](const Tuple& tu) {
    return tu.distance == 0;
  });
  EXPECT_TRUE(has_zero);
}

TEST(UlamCandidates, Lemma1LulamWindowLocality) {
  // For blocks whose opt image is close (u_i < B/2), the lulam window's
  // endpoints are within 2*u_i of the opt image endpoints.
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    const auto s = core::random_permutation(300, seed);
    const auto t = core::plant_edits(s, 12, seed + 77, true).text;
    const std::int64_t bsize = 60;
    const auto blocks = edit_mpc::make_blocks(300, bsize);
    const auto images = seq::block_images(s, t, blocks);
    for (std::size_t i = 0; i < blocks.size(); ++i) {
      const SymView block = subview(s, blocks[i]);
      const auto u = seq::ulam_distance(block, subview(t, images[i]));
      if (u >= bsize / 2 || u == 0) continue;
      const auto local = seq::local_ulam(block, t);
      EXPECT_LE(std::abs(local.window.begin - images[i].begin), 2 * u)
          << "seed=" << seed << " block=" << i;
      EXPECT_LE(std::abs(local.window.end - images[i].end), 2 * u)
          << "seed=" << seed << " block=" << i;
    }
  }
}

TEST(UlamCandidates, Lemma3CoverProperty) {
  // For every block with a qualifying opt image, Algorithm 1 outputs a
  // candidate [a', b') with a_i <= a' <= a_i + eps'*u_i and
  // b_i - eps'*u_i <= b' <= b_i (conditions 1 and 2).
  const double eps_prime = 0.25;
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    const auto s = core::random_permutation(400, seed);
    const auto t = core::plant_edits(s, 20, seed + 13, true).text;
    const std::int64_t bsize = 80;
    const auto blocks = edit_mpc::make_blocks(400, bsize);
    const auto images = seq::block_images(s, t, blocks);
    for (std::size_t i = 0; i < blocks.size(); ++i) {
      const SymView block = subview(s, blocks[i]);
      const auto u = seq::ulam_distance(block, subview(t, images[i]));
      if (u == 0) continue;  // handled by the exact-tuple test
      // Lemma 3 gate: small distance, or enough unchanged characters.  With
      // 20 edits on 400 symbols, u < B/2 always holds here.
      ASSERT_LT(u, bsize / 2);
      const auto tuples =
          run_block(s, t, blocks[i].begin, blocks[i].end, eps_prime, seed + i);
      const double slack = eps_prime * static_cast<double>(u);
      const bool covered = std::any_of(
          tuples.begin(), tuples.end(), [&](const Tuple& tu) {
            return tu.window_begin >= images[i].begin &&
                   static_cast<double>(tu.window_begin) <=
                       static_cast<double>(images[i].begin) + slack &&
                   tu.window_end <= images[i].end &&
                   static_cast<double>(tu.window_end) >=
                       static_cast<double>(images[i].end) - slack;
          });
      EXPECT_TRUE(covered) << "seed=" << seed << " block=" << i << " u=" << u;
    }
  }
}

TEST(UlamCandidates, HighDistanceBlockStillAnchorsViaHittingSet) {
  // Move a block far away: its opt image is distant but the characters are
  // unchanged, so the hitting-set path must anchor a candidate near the
  // block's actual location in t.
  const auto s = core::random_permutation(600, 21);
  SymString t(s.begin(), s.end());
  // Rotate by 200: every block's content now lives 200 positions away.
  std::rotate(t.begin(), t.begin() + 200, t.end());
  const std::int64_t begin = 0;
  const std::int64_t end = 150;  // block size 150, distance to its image large
  CandidateStats stats;
  const auto tuples = run_block(s, t, begin, end, 0.25, 9, &stats);
  // The block s[0,150) appears verbatim at t[400, 550): some candidate must
  // essentially find it (distance far below the trivial 150).
  const auto best = std::min_element(tuples.begin(), tuples.end(),
                                     [](const Tuple& a, const Tuple& b) {
                                       return a.distance < b.distance;
                                     });
  ASSERT_NE(best, tuples.end());
  EXPECT_EQ(best->distance, 0);
  EXPECT_EQ(best->window_begin, 400);
  EXPECT_EQ(best->window_end, 550);
}

TEST(UlamCandidates, CandidateCountIsModest) {
  // Õ_eps(1) candidates per block: assert a generous absolute budget.
  const auto s = core::random_permutation(2000, 31);
  const auto t = core::plant_edits(s, 100, 32, true).text;
  CandidateStats stats;
  const auto tuples = run_block(s, t, 500, 1000, 0.25, 33, &stats);
  EXPECT_GT(tuples.size(), 0u);
  EXPECT_LT(stats.candidates_evaluated, 20000u);
}

TEST(UlamCandidates, NoMatchesProducesOnlyTrivialCandidates) {
  // Block symbols absent from t entirely.
  SymString s(50);
  for (std::size_t i = 0; i < s.size(); ++i) s[i] = 10000 + static_cast<Symbol>(i);
  const auto t = core::random_permutation(100, 3);
  CandidateParams params;
  params.eps_prime = 0.25;
  params.n = 50;
  params.n_bar = 100;
  Pcg32 rng = derive_stream(1, 2);
  const auto tuples = build_block_candidates(0, std::vector<std::int64_t>(50, -1),
                                             params, rng);
  for (const Tuple& tu : tuples) {
    EXPECT_GE(tu.distance, 50 - (tu.window_end - tu.window_begin));
  }
}

// ---- Run-level evaluator vs the point-level engine. ----

/// One candidate evaluated the point-level way: slice the feed to q in
/// [sp, ep), keep the diagonal band |q - sp - p| <= cap, and run
/// `seq::bounded_ulam_from_match_points`.  `work` is what that charges:
/// the slice count + 1 plus the engine's own charge.
struct PointEvaluation {
  std::optional<std::int64_t> distance;
  std::uint64_t work = 0;
};

PointEvaluation evaluate_points(const std::vector<seq::MatchPoint>& pts,
                                std::int64_t block_len, std::int64_t sp,
                                std::int64_t ep, std::int64_t cap) {
  PointEvaluation out;
  out.work = 1;
  std::vector<seq::MatchPoint> window;  // pts is sorted by p, so is window
  for (const seq::MatchPoint& m : pts) {
    if (m.q < sp || m.q >= ep) continue;
    ++out.work;
    if (std::abs(m.q - sp - m.p) <= cap) window.push_back(seq::MatchPoint{m.p, m.q - sp});
  }
  out.distance =
      seq::bounded_ulam_from_match_points(window, block_len, ep - sp, cap, &out.work);
  return out;
}

/// A candidate window as the grid loops pass it to `evaluate`.
struct Window {
  std::int64_t sp, ep, cap;
};

/// Evaluates `windows` in order with `eval` and checks every tuple, prune
/// and work charge against the point-level engine; a repeated window must
/// be skipped without a charge.
void expect_matches_points(BlockEvaluator& eval, std::int64_t begin, std::int64_t end,
                           std::int64_t n_bar, const std::vector<Window>& windows) {
  const std::int64_t b_len = end - begin;
  std::set<std::pair<std::int64_t, std::int64_t>> seen;
  std::vector<Tuple> out;
  std::size_t kept = 0;
  for (const Window& w : windows) {
    const std::int64_t sp = std::clamp<std::int64_t>(w.sp, 0, n_bar);
    const std::int64_t ep = std::clamp<std::int64_t>(w.ep, sp, n_bar);
    const std::uint64_t work_before = eval.work();
    const std::size_t out_before = out.size();
    eval.evaluate(w.sp, w.ep, w.cap, out);
    if (!seen.insert({sp, ep}).second) {  // a repeated window is skipped
      EXPECT_EQ(eval.work(), work_before);
      EXPECT_EQ(out.size(), out_before);
      continue;
    }
    const auto expect = evaluate_points(eval.points(), b_len, sp, ep, w.cap);
    const std::string where = "window [" + std::to_string(sp) + "," + std::to_string(ep) +
                              ") cap " + std::to_string(w.cap);
    EXPECT_EQ(eval.work() - work_before, expect.work) << where;
    ASSERT_EQ(out.size() - out_before, expect.distance.has_value() ? 1U : 0U) << where;
    if (expect.distance.has_value()) {
      ++kept;
      EXPECT_EQ(out.back(), (Tuple{begin, end, sp, ep, *expect.distance})) << where;
    }
  }
  EXPECT_GT(kept, 0U);
}

/// Evaluates explicit and random windows of block s[begin, end) against t
/// with one evaluator (so its scratch is reused across calls) and checks
/// every tuple, prune and work charge against the point-level engine.
void sweep_block(SymView s, SymView t, std::int64_t begin, std::int64_t end,
                 std::uint64_t seed) {
  const auto n_bar = static_cast<std::int64_t>(t.size());
  const std::int64_t b_len = end - begin;
  BlockEvaluator eval(begin, positions_of(subview(s, {begin, end}), t), n_bar, nullptr);
  ASSERT_FALSE(eval.points().empty());
  const std::int64_t image = eval.points().front().q - eval.points().front().p;

  std::vector<Window> windows{
      {image, image + b_len, 0},                  // cap 0
      {image + 3, image + b_len - 3, b_len},      // runs cut on both sides
      {image, image + b_len - 5, 2},              // |na - nb| > cap: slice only
      {image + 7, image + 7, b_len},              // empty window
      {-5, 0, b_len},                             // empty after clamping
      {n_bar - 2, n_bar + 9, b_len + 9},          // clamped at the end of t
  };
  Pcg32 rng = derive_stream(seed, 0xD1FF);
  for (int i = 0; i < 800; ++i) {
    const std::int64_t sp = image + rng.uniform(-b_len, b_len);
    const std::int64_t ep = sp + b_len + rng.uniform(-b_len / 2, b_len / 2);
    const std::int64_t cap = i % 8 == 0 ? 0 : rng.uniform(0, b_len + 4);
    windows.push_back(Window{sp, ep, cap});
  }
  expect_matches_points(eval, begin, end, n_bar, windows);
}

TEST(BlockEvaluator, MatchesPointEngineOnPlantedEdits) {
  const auto s = core::random_permutation(400, 41);
  const auto t = core::plant_edits(s, 30, 42, true).text;
  sweep_block(s, t, 100, 200, 1);
  sweep_block(s, t, 0, 64, 2);
}

TEST(BlockEvaluator, MatchesPointEngineOnAdjacentSwaps) {
  // Every diagonal run has length 1.
  const auto s = core::random_permutation(300, 43);
  SymString t(s.begin(), s.end());
  for (std::size_t i = 0; i + 1 < t.size(); i += 2) std::swap(t[i], t[i + 1]);
  sweep_block(s, t, 50, 150, 3);
}

TEST(BlockEvaluator, MatchesPointEngineOnOneLongRun) {
  // s == t: the block is a single run, cut mid-way by most windows.
  const auto s = core::random_permutation(300, 44);
  sweep_block(s, s, 120, 220, 4);
}

/// Evaluates one start under several caps, each cap with its own ends: at,
/// one past and one before every run's q_end, so the last run of a window
/// is cut, ends exactly or is followed by a gap.  Then a different start,
/// then the first start again with a fourth cap.
void sweep_row(SymView s, SymView t, std::int64_t begin, std::int64_t end) {
  const auto n_bar = static_cast<std::int64_t>(t.size());
  const std::int64_t b_len = end - begin;
  BlockEvaluator eval(begin, positions_of(subview(s, {begin, end}), t), n_bar, nullptr);
  const auto runs = seq::diagonal_runs(eval.points());
  ASSERT_GE(runs.size(), 2U);
  const auto length = [](const Tuple& r) { return r.window_end - r.window_begin; };
  const Tuple& longest = *std::max_element(
      runs.begin(), runs.end(),
      [&](const Tuple& a, const Tuple& b) { return length(a) < length(b); });
  // Mid-run when the longest run has length >= 2.
  const std::int64_t first = longest.window_begin + length(longest) / 2;
  const std::int64_t second = runs.front().window_begin;

  std::vector<Window> windows;
  const auto ends = [&](std::int64_t sp, std::int64_t cap, std::int64_t offset) {
    for (const Tuple& run : runs) {
      if (run.window_end + offset >= sp) windows.push_back({sp, run.window_end + offset, cap});
    }
    // About the block's length: no cap prunes it by length alone.
    windows.push_back({sp, sp + b_len + offset, cap});
  };
  // Caps grow, as from one guess level to the next, so a row kept past its
  // cap would lack runs.
  ends(first, b_len / 4, 0);   // ends exactly at each q_end
  ends(first, b_len / 2, 1);   // one past each q_end
  ends(first, b_len + 4, -1);  // one before: the run crossing ep is cut
  ends(second, b_len, 0);
  ends(first, b_len, 2);       // back to the first start, a fourth cap
  expect_matches_points(eval, begin, end, n_bar, windows);
}

TEST(BlockEvaluator, RowReusedAcrossEndsAndCaps) {
  const auto s = core::random_permutation(400, 45);
  const auto t = core::plant_edits(s, 30, 46, true).text;
  sweep_row(s, t, 100, 200);
  // Adjacent swaps: every run has length 1.
  SymString swapped(s.begin(), s.end());
  for (std::size_t i = 0; i + 1 < swapped.size(); i += 2) {
    std::swap(swapped[i], swapped[i + 1]);
  }
  sweep_row(s, swapped, 100, 200);
}

TEST(UlamCandidates, StatsPinnedForOneBlock) {
  // Literals recorded from the point-level evaluator this one replaced:
  // the run-level one must evaluate, prune and charge exactly the same.
  const auto s = core::random_permutation(1024, 7);
  const auto t = core::plant_edits(s, 64, 8, true).text;
  CandidateStats stats;
  const auto tuples = run_block(s, t, 408, 510, 0.25, 5, &stats);
  EXPECT_EQ(tuples.size(), 6025U);
  EXPECT_EQ(stats.candidates_evaluated, 6106U);
  EXPECT_EQ(stats.candidates_pruned, 81U);
  EXPECT_EQ(stats.work, 1580844U);
}

TEST(UlamCandidates, StatsPinnedForManyRuns) {
  // Literals recorded from the per-window evaluator (one clip and chain DP
  // per window) on an adjacent-swaps block, where every run has length 1.
  const auto s = core::random_permutation(1024, 9);
  SymString t(s.begin(), s.end());
  for (std::size_t i = 0; i + 1 < t.size(); i += 2) std::swap(t[i], t[i + 1]);
  CandidateStats stats;
  const auto tuples = run_block(s, t, 408, 536, 0.25, 5, &stats);
  std::int64_t distance_sum = 0;
  for (const Tuple& tu : tuples) distance_sum += tu.distance;
  EXPECT_EQ(tuples.size(), 1704U);
  EXPECT_EQ(distance_sum, 297966);
  EXPECT_EQ(stats.candidates_evaluated, 1719U);
  EXPECT_EQ(stats.candidates_pruned, 15U);
  EXPECT_EQ(stats.anchors_sampled, 896U);
  EXPECT_EQ(stats.anchors_distinct, 14U);
  EXPECT_EQ(stats.work, 8747379U);
}

}  // namespace
}  // namespace mpcsd::ulam_mpc
