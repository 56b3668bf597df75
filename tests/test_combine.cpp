// The tuple-combine DP (Algorithms 2 and 4): fast solvers vs the naive
// reference, validity (output is a realizable transformation cost), and the
// overlap extension of Section 5.2.3.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <ostream>
#include <set>
#include <unordered_map>

#include "common/contracts.hpp"
#include "common/rng.hpp"
#include "core/workload.hpp"
#include "edit_mpc/small_distance.hpp"
#include "seq/combine.hpp"
#include "seq/edit_distance.hpp"
#include "seq/types.hpp"
#include "ulam_mpc/candidates.hpp"

namespace mpcsd::seq {
namespace {

/// Where generated tuples live: blocks in [origin, n) of s and windows in
/// [origin, n_bar] of s̄.  The fast solvers radix-sort positions with one
/// 8-bit digit per byte of the key span, so wide universes run the
/// multi-pass sort, and a far origin keeps every key far from 0.
struct Universe {
  std::int64_t n = 0;
  std::int64_t n_bar = 0;
  std::int64_t origin = 0;
};

void PrintTo(const Universe& u, std::ostream* os) {
  *os << "n=" << u.n << " n_bar=" << u.n_bar << " origin=" << u.origin;
}

constexpr std::int64_t kHalf = std::int64_t{1} << 31U;
/// Key spans of 1, 2, 3 and 4 digits (sparse tuples in the wide ones),
/// plus a 3-digit span offset near 2^31.
const Universe kNarrow{40, 46, 0};
const Universe kUniverses[] = {kNarrow,
                               {20'000, 21'000, 0},
                               {100'000, 120'000, 0},
                               {kHalf - 1, kHalf - 3, kHalf - 70'000},
                               {kHalf - 1, kHalf - 7, 0}};

std::vector<Tuple> random_tuples(const Universe& u, std::size_t count,
                                 std::uint64_t seed) {
  Pcg32 rng = derive_stream(seed, 0x70);
  std::vector<Tuple> tuples;
  for (std::size_t i = 0; i < count; ++i) {
    Tuple t;
    t.block_begin = rng.uniform(u.origin, u.n - 1);
    t.block_end = rng.uniform(t.block_begin + 1, u.n);
    t.window_begin = rng.uniform(u.origin, u.n_bar);
    t.window_end = rng.uniform(t.window_begin, u.n_bar);
    t.distance = rng.uniform(0, 30);
    tuples.push_back(t);
  }
  return tuples;
}

/// The one order MaxCombineSolver::solve requires.
bool block_begin_less(const Tuple& a, const Tuple& b) {
  return a.block_begin < b.block_begin;
}

/// Tuples as round 1 sends them: every tuple belongs to one of a few fixed
/// blocks and its window lies near the block's diagonal.  Tuples of one
/// block never chain, which the fast kMax solver exploits.
std::vector<Tuple> block_partitioned_tuples(const Universe& u, std::size_t count,
                                            std::uint64_t seed) {
  Pcg32 rng = derive_stream(seed, 0x71);
  const std::int64_t block = 5;
  std::vector<Tuple> tuples;
  for (std::size_t i = 0; i < count; ++i) {
    Tuple t;
    t.block_begin = u.origin + block * rng.uniform(0, (u.n - 1 - u.origin) / block);
    t.block_end = std::min(u.n, t.block_begin + block);
    t.window_begin =
        std::clamp<std::int64_t>(t.block_begin + rng.uniform(-3, 6), u.origin, u.n_bar);
    t.window_end = std::clamp<std::int64_t>(t.window_begin + block + rng.uniform(-2, 2),
                                            t.window_begin, u.n_bar);
    t.distance = rng.uniform(0, 6);
    tuples.push_back(t);
  }
  return tuples;
}

/// The dispatch rule of `combine_tuples` with kMax gaps: the sweep runs
/// when T >= 2, its 3·(n + n_bar + 1) words fit in 2·T tuples, and
/// E·(n + n_bar + 2) <= T·⌈log2 T⌉² for E distinct block boundaries;
/// otherwise the CDQ runs.
bool takes_sweep(const std::vector<Tuple>& tuples, std::int64_t n, std::int64_t n_bar) {
  const auto m = static_cast<std::uint64_t>(tuples.size());
  const auto span = static_cast<std::uint64_t>(n + n_bar);
  if (m < 2 || 3 * (span + 1) * sizeof(std::int64_t) > 2 * m * sizeof(Tuple)) {
    return false;
  }
  std::set<std::int64_t> boundaries;
  for (const Tuple& t : tuples) {
    boundaries.insert(t.block_begin);
    boundaries.insert(t.block_end);
  }
  const auto log_m = static_cast<std::uint64_t>(std::bit_width(m - 1));
  return boundaries.size() * (span + 2) <= m * log_m * log_m;
}

/// The kMax combine of `tuples` equals the naive reference and a fresh
/// MaxCombineSolver's answer, and both fast paths charge
/// max_combine_work(T).
void expect_max_paths_agree(std::vector<Tuple> tuples, std::int64_t n,
                            std::int64_t n_bar) {
  const auto want =
      combine_tuples_naive(tuples, n, n_bar, {GapCost::kMax, false, false});
  std::uint64_t work = 0;
  ASSERT_EQ(combine_tuples(tuples, n, n_bar, {GapCost::kMax, true, false}, &work), want);
  EXPECT_EQ(work, max_combine_work(tuples.size()));
  std::stable_sort(tuples.begin(), tuples.end(), block_begin_less);
  std::uint64_t solver_work = 0;
  ASSERT_EQ(MaxCombineSolver{}.solve(tuples, n, n_bar, &solver_work), want);
  EXPECT_EQ(solver_work, work);
}

/// Round-1 tuples with the corner cases the sweep's dense arrays meet:
/// blocks of `block` cells (the last one shorter unless it divides n),
/// empty windows, windows pinned to 0 or to n_bar, zero distances, and
/// tuples no cheap chain reaches (a window at 0 behind a late block, a
/// distance above n + n_bar).
std::vector<Tuple> sweep_corner_tuples(std::int64_t n, std::int64_t n_bar,
                                       std::int64_t block, std::size_t count,
                                       std::uint64_t seed) {
  Pcg32 rng = derive_stream(seed, 0x73);
  std::vector<Tuple> tuples;
  for (std::size_t i = 0; i < count; ++i) {
    Tuple t;
    t.block_begin = block * rng.uniform(0, (n - 1) / block);
    t.block_end = std::min(n, t.block_begin + block);
    const std::int64_t diagonal = t.block_begin * n_bar / n;
    t.window_begin = std::clamp<std::int64_t>(diagonal + rng.uniform(-4, 4), 0, n_bar);
    t.window_end = std::clamp<std::int64_t>(
        t.window_begin + (t.block_end - t.block_begin) + rng.uniform(-4, 4),
        t.window_begin, n_bar);
    t.distance = rng.uniform(0, 8);
    switch (rng.uniform(0, 9)) {
      case 0: t.window_end = t.window_begin; break;
      case 1: t.window_begin = 0; break;
      case 2: t.window_end = n_bar; break;
      case 3: t.window_begin = t.window_end = n_bar; break;
      case 4: t.distance = 0; break;
      case 5: t.distance = 3 * (n + n_bar); break;
      default: break;
    }
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

class CombineFuzz
    : public ::testing::TestWithParam<std::tuple<int, GapCost, Universe>> {};

TEST_P(CombineFuzz, FastMatchesNaive) {
  const auto [count, gap, universe] = GetParam();
  const std::int64_t n = universe.n;
  const std::int64_t n_bar = universe.n_bar;
  MaxCombineSolver reused;  // scratch carried across every instance below
  for (std::uint64_t seed = 0; seed < 25; ++seed) {
    for (const bool blocks : {false, true}) {
      const auto size = static_cast<std::size_t>(count);
      auto tuples = blocks ? block_partitioned_tuples(universe, size, seed)
                           : random_tuples(universe, size, seed);
      CombineOptions fast{gap, true, false};
      CombineOptions naive{gap, false, false};
      std::uint64_t work = 0;
      const auto f = combine_tuples(tuples, n, n_bar, fast, &work);
      const auto s = combine_tuples_naive(tuples, n, n_bar, naive);
      ASSERT_EQ(f, s) << "seed=" << seed << " count=" << count
                      << " gap=" << static_cast<int>(gap) << " blocks=" << blocks
                      << " n=" << n;
      if (gap != GapCost::kMax) continue;
      EXPECT_EQ(work, max_combine_work(static_cast<std::uint64_t>(count)));
      std::sort(tuples.begin(), tuples.end(), block_begin_less);
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
                       ::testing::Values(GapCost::kMax, GapCost::kSum),
                       ::testing::Values(kNarrow)));

INSTANTIATE_TEST_SUITE_P(
    WideKeys, CombineFuzz,
    ::testing::Combine(::testing::Values(20, 100, 400),
                       ::testing::Values(GapCost::kMax, GapCost::kSum),
                       ::testing::ValuesIn(kUniverses + 1, std::end(kUniverses))));

TEST(Combine, InputOrderWithinABlockDoesNotMatter) {
  // combine_tuples skips its sort when the input is already in block_begin
  // order and leaves the order within one block_begin as it came: shuffled
  // input (sorted on all four keys) and block_begin-sorted input (ties
  // left shuffled) must give the same answer and work.
  for (const Universe& u : kUniverses) {
    for (std::uint64_t seed = 0; seed < 10; ++seed) {
      auto shuffled = block_partitioned_tuples(u, 300, seed);
      Pcg32 rng = derive_stream(seed, 0x72);
      for (std::size_t i = shuffled.size(); i > 1; --i) {
        const auto j = rng.uniform(0, static_cast<std::int64_t>(i) - 1);
        std::swap(shuffled[i - 1], shuffled[static_cast<std::size_t>(j)]);
      }
      auto by_begin = shuffled;
      std::stable_sort(by_begin.begin(), by_begin.end(), block_begin_less);
      for (const GapCost gap : {GapCost::kMax, GapCost::kSum}) {
        const CombineOptions fast{gap, true, false};
        std::uint64_t shuffled_work = 0;
        std::uint64_t by_begin_work = 0;
        const auto want = combine_tuples(shuffled, u.n, u.n_bar, fast, &shuffled_work);
        ASSERT_EQ(combine_tuples(by_begin, u.n, u.n_bar, fast, &by_begin_work), want)
            << "seed=" << seed << " n=" << u.n << " gap=" << static_cast<int>(gap);
        EXPECT_EQ(by_begin_work, shuffled_work);
        ASSERT_EQ(combine_tuples_naive(shuffled, u.n, u.n_bar, {gap, false, false}),
                  want);
      }
    }
  }
}

TEST(Combine, ReusedSolverAcrossWideAndNarrowInstances) {
  // One solver's scratch (sort buffers, ranks, Fenwick) carried from
  // instances whose keys span four digits to one-digit ones and back.
  MaxCombineSolver reused;
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    for (const Universe& u : kUniverses) {
      for (const std::size_t count : {std::size_t{700}, std::size_t{90}}) {
        auto tuples = seed % 2 == 0 ? block_partitioned_tuples(u, count, seed)
                                    : random_tuples(u, count, seed);
        std::sort(tuples.begin(), tuples.end(), block_begin_less);
        const auto want =
            combine_tuples_naive(tuples, u.n, u.n_bar, {GapCost::kMax, false, false});
        ASSERT_EQ(reused.solve(tuples, u.n, u.n_bar), want)
            << "seed=" << seed << " n=" << u.n << " count=" << count;
      }
    }
  }
}

TEST(Combine, SweepMatchesNaiveOnBlockPartitions) {
  // n != n_bar both ways, blocks that divide n and blocks that leave a
  // short last one (down to one cell), and windows touching both ends
  // of s̄.
  struct Shape {
    std::int64_t n, n_bar, block;
  };
  for (const Shape& shape : {Shape{60, 45, 6}, Shape{45, 70, 7}, Shape{61, 61, 6},
                             Shape{100, 1, 9}, Shape{2, 80, 1}, Shape{1, 0, 1}}) {
    for (std::uint64_t seed = 0; seed < 30; ++seed) {
      const auto tuples = sweep_corner_tuples(shape.n, shape.n_bar, shape.block, 250, seed);
      ASSERT_TRUE(takes_sweep(tuples, shape.n, shape.n_bar)) << "n=" << shape.n;
      SCOPED_TRACE(::testing::Message() << "n=" << shape.n << " n_bar=" << shape.n_bar
                                        << " block=" << shape.block << " seed=" << seed);
      expect_max_paths_agree(tuples, shape.n, shape.n_bar);
    }
  }
}

TEST(Combine, SweepMatchesNaiveOnUlamCandidates) {
  // Algorithm 1's own output on planted permutations: every block's
  // candidates, blocks of ceil(n^(2/3)) with a short last one, as the Ulam
  // combine machine receives them.
  for (const std::int64_t n : {128, 300}) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      const auto s = core::random_permutation(n, seed);
      const auto t = core::plant_edits(s, n / 16, seed + 10, true).text;
      std::unordered_map<Symbol, std::int64_t> where;
      for (std::size_t j = 0; j < t.size(); ++j) {
        where.emplace(t[j], static_cast<std::int64_t>(j));
      }
      ulam_mpc::CandidateParams params;
      params.n = n;
      params.n_bar = static_cast<std::int64_t>(t.size());
      const auto block = static_cast<std::int64_t>(
          std::ceil(std::pow(static_cast<double>(n), 2.0 / 3.0)));
      ASSERT_NE(n % block, 0);
      std::vector<Tuple> tuples;
      for (std::int64_t begin = 0; begin < n; begin += block) {
        std::vector<std::int64_t> positions;
        for (std::int64_t p = begin; p < std::min(n, begin + block); ++p) {
          const auto it = where.find(s[static_cast<std::size_t>(p)]);
          positions.push_back(it == where.end() ? -1 : it->second);
        }
        Pcg32 rng = derive_stream(seed, static_cast<std::uint64_t>(begin));
        const auto out = ulam_mpc::build_block_candidates(begin, positions, params, rng);
        tuples.insert(tuples.end(), out.begin(), out.end());
      }
      ASSERT_TRUE(takes_sweep(tuples, n, params.n_bar)) << "n=" << n;
      SCOPED_TRACE(::testing::Message() << "n=" << n << " seed=" << seed
                                        << " tuples=" << tuples.size());
      expect_max_paths_agree(tuples, n, params.n_bar);
    }
  }
}

TEST(Combine, WideCoordinatesStayOnTheCdq) {
  // Few tuples over wide coordinates: the sweep's dense arrays would
  // dwarf the input, so the CDQ must answer, and exactly.
  const Universe wide{1 << 20, (1 << 20) + 17, 0};
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    for (const bool blocks : {false, true}) {
      const auto tuples = blocks ? block_partitioned_tuples(wide, 300, seed)
                                 : random_tuples(wide, 300, seed);
      ASSERT_FALSE(takes_sweep(tuples, wide.n, wide.n_bar));
      SCOPED_TRACE(::testing::Message() << "seed=" << seed << " blocks=" << blocks);
      expect_max_paths_agree(tuples, wide.n, wide.n_bar);
    }
  }
}

/// The kSum dispatch rule of `combine_tuples`: the dense sweep runs when
/// T >= 2, its (n_bar + 1) + (n + 2) + T words fit in 2·T tuples, and
/// E·(n_bar + 1) + n <= T·⌈log2 T⌉ for E distinct block_begins; otherwise
/// the Fenwick runs.
bool takes_dense_sum(const std::vector<Tuple>& tuples, std::int64_t n,
                     std::int64_t n_bar) {
  const auto m = static_cast<std::uint64_t>(tuples.size());
  const auto words = static_cast<std::uint64_t>(n_bar + 1 + n + 2) + m;
  if (m < 2 || words * sizeof(std::int64_t) > 2 * m * sizeof(Tuple)) return false;
  std::set<std::int64_t> begins;
  for (const Tuple& t : tuples) begins.insert(t.block_begin);
  const auto log_m = static_cast<std::uint64_t>(std::bit_width(m - 1));
  return begins.size() * static_cast<std::uint64_t>(n_bar + 1) +
             static_cast<std::uint64_t>(n) <=
         m * log_m;
}

/// The kSum combine of `tuples`, which must take the dense sweep, equals
/// the naive reference and the Fenwick's answer, and both fast paths add
/// exactly 6·T to the work.  The Fenwick answers the same instance moved
/// `shift` cells into both strings: every transformation then pays 2·shift
/// more at its start, and n and n_bar of that size no longer fit the dense
/// sweep.
void expect_sum_paths_agree(std::vector<Tuple> tuples, std::int64_t n, std::int64_t n_bar) {
  ASSERT_TRUE(takes_dense_sum(tuples, n, n_bar));
  const auto want = combine_tuples_naive(tuples, n, n_bar, {GapCost::kSum, false, false});
  std::uint64_t work = 5;
  ASSERT_EQ(combine_tuples(tuples, n, n_bar, {GapCost::kSum, true, false}, &work), want);
  EXPECT_EQ(work, 5 + 6 * tuples.size());
  const std::int64_t shift = 10 * static_cast<std::int64_t>(tuples.size()) + 1000;
  for (Tuple& t : tuples) {
    t.block_begin += shift;
    t.block_end += shift;
    t.window_begin += shift;
    t.window_end += shift;
  }
  ASSERT_FALSE(takes_dense_sum(tuples, n + shift, n_bar + shift));
  std::uint64_t fenwick_work = 5;
  ASSERT_EQ(combine_tuples(tuples, n + shift, n_bar + shift, {GapCost::kSum, true, false},
                           &fenwick_work),
            want + 2 * shift);
  EXPECT_EQ(fenwick_work, work);
}

TEST(Combine, DenseSumMatchesNaiveOnEditInboxes) {
  // Algorithm 3's own output: every task's tuples of a planted pair at
  // several guesses, in the block order a combine machine receives them,
  // and shuffled (combine_tuples then sorts).
  for (const std::int64_t n : {300, 700}) {
    const auto s = core::random_string(n, 4, static_cast<std::uint64_t>(n));
    const auto t = core::plant_edits(s, n / 16, 3, false, 4).text;
    const auto n_bar = static_cast<std::int64_t>(t.size());
    for (const std::int64_t guess : {n / 32, n / 16, n / 4}) {
      edit_mpc::SmallDistanceParams params;
      params.eps_prime = 0.15;
      params.x = 0.25;
      params.delta_guess = guess;
      const auto geo = edit_mpc::small_geometry(n, n_bar, params);
      std::vector<Tuple> tuples;
      for (const auto& task : edit_mpc::make_small_tasks(s, t, params, geo)) {
        const auto out = edit_mpc::small_task_tuples(task, params, geo, nullptr);
        tuples.insert(tuples.end(), out.begin(), out.end());
      }
      SCOPED_TRACE(::testing::Message() << "n=" << n << " guess=" << guess
                                        << " tuples=" << tuples.size());
      expect_sum_paths_agree(tuples, n, n_bar);
      Pcg32 rng = derive_stream(static_cast<std::uint64_t>(guess), 0x74);
      for (std::size_t i = tuples.size(); i > 1; --i) {
        const auto j = rng.uniform(0, static_cast<std::int64_t>(i) - 1);
        std::swap(tuples[i - 1], tuples[static_cast<std::size_t>(j)]);
      }
      expect_sum_paths_agree(tuples, n, n_bar);
    }
  }
}

TEST(Combine, DenseSumMatchesNaiveOnBlockPartitions) {
  // The dense array's corners: empty windows, windows at 0 and at n_bar
  // (window_end == n_bar reads and writes its last cell), n != n_bar both
  // ways, short last blocks, tuples no cheap chain reaches.
  struct Shape {
    std::int64_t n, n_bar, block;
  };
  for (const Shape& shape : {Shape{60, 45, 6}, Shape{45, 70, 7}, Shape{61, 61, 6},
                             Shape{100, 1, 9}, Shape{2, 80, 1}, Shape{1, 0, 1}}) {
    for (std::uint64_t seed = 0; seed < 30; ++seed) {
      SCOPED_TRACE(::testing::Message() << "n=" << shape.n << " n_bar=" << shape.n_bar
                                        << " block=" << shape.block << " seed=" << seed);
      expect_sum_paths_agree(sweep_corner_tuples(shape.n, shape.n_bar, shape.block, 250, seed),
                             shape.n, shape.n_bar);
    }
  }
}

TEST(Combine, WideSumInputsStayOnTheFenwick) {
  // Many block boundaries over a wide s̄ (BM_CombineSum's shape) and few
  // tuples over wide coordinates: the dense sweep does not pay or does
  // not fit, so the Fenwick answers, exactly and for 6·T.
  const Universe wide{1 << 20, (1 << 20) + 17, 0};
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    for (const bool blocks : {false, true}) {
      const auto tuples = blocks ? block_partitioned_tuples(wide, 300, seed)
                                 : random_tuples(wide, 300, seed);
      ASSERT_FALSE(takes_dense_sum(tuples, wide.n, wide.n_bar));
      std::uint64_t work = 0;
      ASSERT_EQ(combine_tuples(tuples, wide.n, wide.n_bar, {GapCost::kSum, true, false}, &work),
                combine_tuples_naive(tuples, wide.n, wide.n_bar, {GapCost::kSum, false, false}))
          << "seed=" << seed << " blocks=" << blocks;
      EXPECT_EQ(work, 6U * tuples.size());
    }
  }
  const Universe many{10'000, 10'000, 0};
  std::vector<Tuple> tuples;
  for (std::int64_t b = 0; b < many.n; b += 100) {
    for (std::int64_t i = 0; i < 40; ++i) {
      tuples.push_back({b, b + 100, b, std::min<std::int64_t>(many.n_bar, b + 100 + i % 5), i});
    }
  }
  ASSERT_FALSE(takes_dense_sum(tuples, many.n, many.n_bar));
  ASSERT_EQ(combine_tuples(tuples, many.n, many.n_bar, {GapCost::kSum, true, false}),
            combine_tuples_naive(tuples, many.n, many.n_bar, {GapCost::kSum, false, false}));
}

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
    const auto tuples = random_tuples({30, 30, 0}, 40, seed);
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
  EXPECT_THROW((void)combine_tuples({}, kHalf, kHalf), ContractViolation);
  EXPECT_EQ(combine_tuples({}, kHalf, kHalf - 1), kHalf);
  // So does the fast kSum solver; the naive reference does not pack.
  const CombineOptions sum_fast{GapCost::kSum, true, false};
  EXPECT_THROW((void)combine_tuples({}, kHalf, kHalf, sum_fast), ContractViolation);
  EXPECT_THROW((void)combine_tuples({}, -1, 4, sum_fast), ContractViolation);
  EXPECT_EQ(combine_tuples({}, kHalf, kHalf - 1, sum_fast), 2 * kHalf - 1);
  EXPECT_EQ(combine_tuples({}, kHalf, kHalf, {GapCost::kSum, false, false}), 2 * kHalf);
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
  const auto tuples = random_tuples({100, 100, 0}, 500, 3);
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
