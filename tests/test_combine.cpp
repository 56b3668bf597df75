// The tuple-combine DP (Algorithms 2 and 4): fast solvers vs the naive
// reference, validity (output is a realizable transformation cost), and the
// overlap extension of Section 5.2.3.
#include <gtest/gtest.h>

#include <algorithm>

#include "common/contracts.hpp"
#include "common/rng.hpp"
#include "core/workload.hpp"
#include "seq/combine.hpp"
#include "seq/edit_distance.hpp"
#include "seq/types.hpp"

namespace mpcsd::seq {
namespace {

std::vector<Tuple> random_tuples(std::int64_t n, std::int64_t n_bar,
                                 std::size_t count, std::uint64_t seed) {
  Pcg32 rng = derive_stream(seed, 0x70);
  std::vector<Tuple> tuples;
  for (std::size_t i = 0; i < count; ++i) {
    Tuple t;
    t.block_begin = rng.uniform(0, n - 1);
    t.block_end = rng.uniform(t.block_begin + 1, n);
    t.window_begin = rng.uniform(0, n_bar);
    t.window_end = rng.uniform(t.window_begin, n_bar);
    t.distance = rng.uniform(0, 30);
    tuples.push_back(t);
  }
  return tuples;
}

/// Tuples as round 1 sends them: every tuple belongs to one of a few fixed
/// blocks and its window lies near the block's diagonal.  Tuples of one
/// block never chain, which the fast kMax solver exploits.
std::vector<Tuple> block_partitioned_tuples(std::int64_t n, std::int64_t n_bar,
                                            std::size_t count, std::uint64_t seed) {
  Pcg32 rng = derive_stream(seed, 0x71);
  const std::int64_t block = 5;
  std::vector<Tuple> tuples;
  for (std::size_t i = 0; i < count; ++i) {
    Tuple t;
    t.block_begin = block * rng.uniform(0, (n - 1) / block);
    t.block_end = std::min(n, t.block_begin + block);
    t.window_begin =
        std::clamp<std::int64_t>(t.block_begin + rng.uniform(-3, 6), 0, n_bar);
    t.window_end = std::clamp<std::int64_t>(t.window_begin + block + rng.uniform(-2, 2),
                                            t.window_begin, n_bar);
    t.distance = rng.uniform(0, 6);
    tuples.push_back(t);
  }
  return tuples;
}

TEST(Combine, EmptyTupleSetGivesTrivialCost) {
  CombineOptions max_opts{GapCost::kMax, true, false};
  CombineOptions sum_opts{GapCost::kSum, true, false};
  EXPECT_EQ(combine_tuples({}, 10, 14, max_opts), 14);
  EXPECT_EQ(combine_tuples({}, 10, 14, sum_opts), 24);
}

TEST(Combine, SingleTuple) {
  // Block [2,5) -> window [3,7), distance 1, n=10, n_bar=12.
  const std::vector<Tuple> tuples{{2, 5, 3, 7, 1}};
  CombineOptions opts{GapCost::kMax, true, false};
  // max(2,3) + 1 + max(10-5, 12-7) = 3 + 1 + 5 = 9.
  EXPECT_EQ(combine_tuples(tuples, 10, 12, opts), 9);
  opts.gap = GapCost::kSum;
  // (2+3) + 1 + (5+5) = 16, but the trivial bound is 10+12 = 22 > 16.
  EXPECT_EQ(combine_tuples(tuples, 10, 12, opts), 16);
}

TEST(Combine, PrefersCheaperChain) {
  // Two adjacent blocks covering everything exactly.
  const std::vector<Tuple> tuples{{0, 5, 0, 5, 1}, {5, 10, 5, 10, 2}};
  CombineOptions opts{GapCost::kMax, true, false};
  EXPECT_EQ(combine_tuples(tuples, 10, 10, opts), 3);
}

TEST(Combine, RespectsMonotonicity) {
  // Tuples with crossing windows cannot chain.
  const std::vector<Tuple> tuples{{0, 5, 6, 10, 0}, {5, 10, 0, 5, 0}};
  CombineOptions opts{GapCost::kMax, true, false};
  // Using one tuple: max(0,6)+0+max(5,0)=11  or  max(5,0)+0+max(0,5)=10.
  EXPECT_EQ(combine_tuples(tuples, 10, 10, opts), 10);
}

class CombineFuzz : public ::testing::TestWithParam<std::tuple<int, GapCost>> {};

TEST_P(CombineFuzz, FastMatchesNaive) {
  const auto [count, gap] = GetParam();
  MaxCombineSolver reused;  // scratch carried across every instance below
  for (std::uint64_t seed = 0; seed < 25; ++seed) {
    const std::int64_t n = 40;
    const std::int64_t n_bar = 46;
    for (const bool blocks : {false, true}) {
      const auto size = static_cast<std::size_t>(count);
      auto tuples = blocks ? block_partitioned_tuples(n, n_bar, size, seed)
                           : random_tuples(n, n_bar, size, seed);
      CombineOptions fast{gap, true, false};
      CombineOptions naive{gap, false, false};
      std::uint64_t work = 0;
      const auto f = combine_tuples(tuples, n, n_bar, fast, &work);
      const auto s = combine_tuples_naive(tuples, n, n_bar, naive);
      ASSERT_EQ(f, s) << "seed=" << seed << " count=" << count
                      << " gap=" << static_cast<int>(gap) << " blocks=" << blocks;
      if (gap != GapCost::kMax) continue;
      EXPECT_EQ(work, max_combine_work(static_cast<std::uint64_t>(count)));
      std::sort(tuples.begin(), tuples.end(), [](const Tuple& a, const Tuple& b) {
        return a.block_begin < b.block_begin;
      });
      std::uint64_t reused_work = 0;
      ASSERT_EQ(reused.solve(tuples, n, n_bar, &reused_work), s)
          << "seed=" << seed << " count=" << count << " blocks=" << blocks;
      EXPECT_EQ(reused_work, work);
    }
  }
}

TEST(Combine, MaxCombineWorkIsTheSolverRecurrence) {
  // The solver charges 10·len for every cross over a segment of len >= 2,
  // split at len/2; max_combine_work is that sum in closed form.
  std::vector<std::uint64_t> by_recurrence{0, 0};
  for (std::uint64_t m = 2; m <= 5000; ++m) {
    by_recurrence.push_back(10 * m + by_recurrence[m / 2] + by_recurrence[m - m / 2]);
  }
  for (std::uint64_t m = 0; m <= 5000; ++m) {
    ASSERT_EQ(max_combine_work(m), by_recurrence[m]) << "m=" << m;
  }
}

INSTANTIATE_TEST_SUITE_P(
    CountsAndGapModes, CombineFuzz,
    ::testing::Combine(::testing::Values(0, 1, 2, 5, 20, 100, 400),
                       ::testing::Values(GapCost::kMax, GapCost::kSum)));

TEST(Combine, ExactTuplesUpperBoundTrueDistance) {
  // Tuples built from exact block distances to aligned windows: the combine
  // result must be >= ed(s, t) (realizability) and, with perfectly aligned
  // exact tuples, usually close to it.
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    const auto s = core::random_string(80, 4, seed);
    const auto t = core::plant_edits(s, 8, seed + 3, false).text;
    const auto n = static_cast<std::int64_t>(s.size());
    const auto n_bar = static_cast<std::int64_t>(t.size());
    std::vector<Tuple> tuples;
    for (std::int64_t b = 0; b < n; b += 20) {
      const std::int64_t be = std::min<std::int64_t>(n, b + 20);
      for (std::int64_t shift = -4; shift <= 4; shift += 2) {
        const std::int64_t wb = std::clamp<std::int64_t>(b + shift, 0, n_bar);
        const std::int64_t we = std::clamp<std::int64_t>(be + shift, wb, n_bar);
        const auto d = edit_distance(subview(s, {b, be}), subview(t, {wb, we}));
        tuples.push_back(Tuple{b, be, wb, we, d});
      }
    }
    const auto exact = edit_distance(s, t);
    for (const GapCost gap : {GapCost::kMax, GapCost::kSum}) {
      const auto result = combine_tuples(tuples, n, n_bar, CombineOptions{gap, true, false});
      ASSERT_GE(result, exact) << "seed=" << seed;
      ASSERT_LE(result, n + n_bar);
    }
  }
}

TEST(Combine, OverlapExtensionNeverWorseThanWithout) {
  for (std::uint64_t seed = 0; seed < 15; ++seed) {
    const auto tuples = random_tuples(30, 30, 40, seed);
    CombineOptions no_overlap{GapCost::kSum, false, false};
    CombineOptions with_overlap{GapCost::kSum, false, true};
    EXPECT_LE(combine_tuples_naive(tuples, 30, 30, with_overlap),
              combine_tuples_naive(tuples, 30, 30, no_overlap))
        << "seed=" << seed;
  }
}

TEST(Combine, OverlapStillUpperBoundsTrueDistance) {
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    const auto s = core::random_string(60, 4, seed);
    const auto t = core::plant_edits(s, 6, seed + 11, false).text;
    const auto n = static_cast<std::int64_t>(s.size());
    const auto n_bar = static_cast<std::int64_t>(t.size());
    std::vector<Tuple> tuples;
    for (std::int64_t b = 0; b < n; b += 15) {
      const std::int64_t be = std::min<std::int64_t>(n, b + 15);
      // Deliberately overlapping windows.
      const std::int64_t wb = std::clamp<std::int64_t>(b - 3, 0, n_bar);
      const std::int64_t we = std::clamp<std::int64_t>(be + 3, wb, n_bar);
      const auto d = edit_distance(subview(s, {b, be}), subview(t, {wb, we}));
      tuples.push_back(Tuple{b, be, wb, we, d});
    }
    const auto result = combine_tuples_naive(
        tuples, n, n_bar, CombineOptions{GapCost::kSum, false, true});
    EXPECT_GE(result, edit_distance(s, t)) << "seed=" << seed;
  }
}

TEST(Combine, RejectsInvalidTuples) {
  const std::vector<Tuple> bad{{5, 3, 0, 2, 1}};  // empty block
  EXPECT_THROW((void)combine_tuples(bad, 10, 10), ContractViolation);
  const std::vector<Tuple> oob{{0, 3, 0, 20, 1}};  // window out of range
  EXPECT_THROW((void)combine_tuples(oob, 10, 10), ContractViolation);
  // The fast kMax solver packs positions into 32 bits and needs its input
  // sorted by block_begin.
  const std::int64_t half = std::int64_t{1} << 31U;
  EXPECT_THROW((void)combine_tuples({}, half, half), ContractViolation);
  EXPECT_EQ(combine_tuples({}, half, half - 1), half);
  const std::vector<Tuple> unsorted{{5, 6, 5, 6, 0}, {0, 1, 0, 1, 0}};
  EXPECT_THROW((void)MaxCombineSolver{}.solve(unsorted, 10, 10), ContractViolation);
  // The solver checks validity itself: an empty block among more than a
  // leaf's worth of tuples sharing one block_begin would otherwise recurse
  // forever.
  std::vector<Tuple> one_begin(100, Tuple{0, 4, 0, 4, 1});
  one_begin.back().block_end = 0;
  EXPECT_THROW((void)MaxCombineSolver{}.solve(one_begin, 10, 10), ContractViolation);
  EXPECT_THROW((void)MaxCombineSolver{}.solve(oob, 10, 10), ContractViolation);
}

TEST(Combine, WorkMeterFastBelowNaive) {
  const auto tuples = random_tuples(100, 100, 500, 3);
  std::uint64_t fast_work = 0;
  std::uint64_t naive_work = 0;
  (void)combine_tuples(tuples, 100, 100, CombineOptions{GapCost::kMax, true, false},
                       &fast_work);
  (void)combine_tuples_naive(tuples, 100, 100,
                             CombineOptions{GapCost::kMax, false, false}, &naive_work);
  EXPECT_LT(fast_work, naive_work);
}

}  // namespace
}  // namespace mpcsd::seq
