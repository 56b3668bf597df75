// Myers/Hyyrö bit-parallel edit distance pinned against Wagner–Fischer.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <set>
#include <vector>

#include "common/cpu.hpp"
#include "common/rng.hpp"
#include "core/workload.hpp"
#include "seq/edit_distance.hpp"
#include "seq/edit_distance_fast.hpp"
#include "seq/edit_distance_os.hpp"
#include "seq/myers.hpp"
#include "seq/types.hpp"

namespace mpcsd::seq {
namespace {

TEST(Myers, KnownValues) {
  EXPECT_EQ(edit_distance_myers(to_symbols("kitten"), to_symbols("sitting")), 3);
  EXPECT_EQ(edit_distance_myers(to_symbols("elephant"), to_symbols("relevant")), 3);
  EXPECT_EQ(edit_distance_myers(to_symbols("abc"), to_symbols("abc")), 0);
  EXPECT_EQ(edit_distance_myers(to_symbols("abc"), SymString{}), 3);
  EXPECT_EQ(edit_distance_myers(SymString{}, to_symbols("xy")), 2);
}

TEST(Myers, SingleBlockFuzz) {
  for (std::uint64_t seed = 0; seed < 60; ++seed) {
    const auto n = 1 + static_cast<std::int64_t>(seed);
    const auto a = core::random_string(n, 4, seed);
    const auto b = core::random_string(
        std::max<std::int64_t>(0, n + static_cast<std::int64_t>(seed % 7) - 3), 4,
        seed + 400);
    ASSERT_EQ(edit_distance_myers(a, b), edit_distance(a, b)) << "seed=" << seed;
  }
}

TEST(Myers, BlockBoundaryLengths) {
  // Pattern lengths straddling the 64-bit block boundaries.
  for (const std::int64_t m : {63, 64, 65, 127, 128, 129, 191, 192, 193}) {
    for (std::uint64_t seed = 0; seed < 3; ++seed) {
      const auto a = core::random_string(m, 3, seed + static_cast<std::uint64_t>(m));
      const auto b = core::random_string(m + 10, 3, seed + 900);
      ASSERT_EQ(edit_distance_myers(a, b), edit_distance(a, b))
          << "m=" << m << " seed=" << seed;
    }
  }
}

TEST(Myers, MultiBlockFuzz) {
  for (std::uint64_t seed = 0; seed < 25; ++seed) {
    const auto m = 100 + static_cast<std::int64_t>(seed * 23);
    const auto a = core::random_string(m, 6, seed);
    const auto b = core::plant_edits(a, static_cast<std::int64_t>(seed * 5), seed + 1,
                                     false, 6)
                       .text;
    ASSERT_EQ(edit_distance_myers(a, b), edit_distance(a, b)) << "seed=" << seed;
  }
}

TEST(Myers, LargeAlphabet) {
  const auto a = core::random_string(500, 100000, 1);
  const auto b = core::random_string(480, 100000, 2);
  EXPECT_EQ(edit_distance_myers(a, b), edit_distance(a, b));
}

TEST(Myers, WorkMeterCountsWords) {
  const auto a = core::random_string(200, 4, 1);  // 4 blocks
  const auto b = core::random_string(300, 4, 2);
  std::uint64_t work = 0;
  edit_distance_myers(a, b, &work);
  EXPECT_EQ(work, 300u * 4u);
}

class MyersSweep
    : public ::testing::TestWithParam<std::tuple<std::int64_t, Symbol>> {};

TEST_P(MyersSweep, MatchesWagnerFischer) {
  const auto [n, alphabet] = GetParam();
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    const auto a = core::random_string(n, alphabet, seed + static_cast<std::uint64_t>(n));
    const auto b = core::random_string(n, alphabet, seed + 31);
    ASSERT_EQ(edit_distance_myers(a, b), edit_distance(a, b))
        << "n=" << n << " sigma=" << alphabet;
  }
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndAlphabets, MyersSweep,
    ::testing::Combine(::testing::Values<std::int64_t>(1, 2, 64, 65, 200, 1000),
                       ::testing::Values<Symbol>(2, 4, 26, 1000)));

TEST(MyersBounded, KnownValues) {
  using Opt = std::optional<std::int64_t>;
  EXPECT_EQ(edit_distance_myers_bounded(to_symbols("kitten"), to_symbols("sitting"), 3),
            Opt(3));
  EXPECT_EQ(edit_distance_myers_bounded(to_symbols("kitten"), to_symbols("sitting"), 2),
            std::nullopt);
  EXPECT_EQ(edit_distance_myers_bounded(SymString{}, to_symbols("xy"), 1), std::nullopt);
  EXPECT_EQ(edit_distance_myers_bounded(SymString{}, to_symbols("xy"), 2), Opt(2));
  EXPECT_EQ(edit_distance_myers_bounded(to_symbols("abc"), to_symbols("abc"), 0), Opt(0));
}

TEST(MyersBounded, MatchesBandedAcrossAlphabetsAndLengths) {
  // Differential vs the scalar band: alphabets 2..1000, lengths 0..2000
  // straddling the 64-bit block boundaries, caps from tight to slack.
  const std::int64_t lengths[] = {0, 1, 2, 63, 64, 65, 127, 128, 129, 500, 2000};
  const Symbol alphabets[] = {2, 4, 26, 1000};
  for (const Symbol sigma : alphabets) {
    for (const std::int64_t n : lengths) {
      for (std::uint64_t seed = 0; seed < 3; ++seed) {
        const auto a =
            core::random_string(n, sigma, seed * 7 + static_cast<std::uint64_t>(n));
        const auto b =
            seed % 2 == 0
                ? core::plant_edits(a, n / 10 + static_cast<std::int64_t>(seed),
                                    seed + 17, false, sigma)
                      .text
                : core::random_string(
                      std::max<std::int64_t>(0, n + static_cast<std::int64_t>(seed) - 1),
                      sigma, seed + 51);
        for (const std::int64_t k : {std::int64_t{0}, std::int64_t{1}, n / 16 + 1,
                                     n / 4 + 1, n + 4}) {
          ASSERT_EQ(edit_distance_myers_bounded(a, b, k), edit_distance_banded(a, b, k))
              << "sigma=" << sigma << " n=" << n << " seed=" << seed << " k=" << k;
        }
      }
    }
  }
}

TEST(MyersBounded, EarlyAbortCheapOnFarPairs) {
  // Large-alphabet random pairs are far apart: the running-score lower
  // bound must kill a tight cap long before the full column sweep.
  const auto a = core::random_string(2000, 1000, 1);
  const auto b = core::random_string(2000, 1000, 2);
  std::uint64_t full = 0;
  std::uint64_t capped = 0;
  edit_distance_myers(a, b, &full);
  EXPECT_EQ(edit_distance_myers_bounded(a, b, 16, &capped), std::nullopt);
  EXPECT_LT(capped, full / 2);
}

TEST(FastDispatch, MatchesScalarOnManyRandomCases) {
  // The acceptance differential: >= 10^4 random cases, alphabets 2..1000,
  // mixed near/far pairs, identical values AND identical modelled work.
  for (std::uint64_t c = 0; c < 10000; ++c) {
    const auto sigma = static_cast<Symbol>(2 + (c * 37) % 999);
    const auto na = static_cast<std::int64_t>((c * 131) % 120);
    const auto nb = static_cast<std::int64_t>((c * 61 + 31) % 120);
    const auto a = core::random_string(na, sigma, c);
    const auto b = c % 3 == 0
                       ? core::plant_edits(a, nb / 8 + 1, c + 1, false, sigma).text
                       : core::random_string(nb, sigma, c + 10007);
    std::uint64_t work_scalar = 0;
    std::uint64_t work_fast = 0;
    const auto d_scalar = edit_distance(a, b, &work_scalar);
    const auto d_fast = edit_distance_fast(a, b, &work_fast);
    ASSERT_EQ(d_scalar, d_fast) << "case=" << c << " sigma=" << sigma;
    ASSERT_EQ(work_scalar, work_fast) << "case=" << c;
  }
}

TEST(FastDispatch, MatchesScalarOnLargePairs) {
  for (std::uint64_t seed = 0; seed < 3; ++seed) {
    const auto n = 1500 + 250 * static_cast<std::int64_t>(seed);
    const Symbol sigma = seed == 0 ? 2 : (seed == 1 ? 26 : 1000);
    const auto a = core::random_string(n, sigma, seed);
    const auto b = seed % 2 == 0
                       ? core::plant_edits(a, n / 20, seed + 5, false, sigma).text
                       : core::random_string(n - 7, sigma, seed + 9);
    ASSERT_EQ(edit_distance_fast(a, b), edit_distance(a, b)) << "n=" << n;
  }
}

TEST(FastDispatch, BandedAndBoundedAgreeWithScalar) {
  for (const std::int64_t n : {std::int64_t{64}, std::int64_t{200}, std::int64_t{1000}}) {
    for (std::uint64_t seed = 0; seed < 4; ++seed) {
      const auto a = core::random_string(n, 8, seed + static_cast<std::uint64_t>(n));
      const auto b =
          core::plant_edits(a, n / 8 + static_cast<std::int64_t>(seed), seed + 3, false, 8)
              .text;
      for (const std::int64_t k : {std::int64_t{1}, std::int64_t{8}, n / 4, n}) {
        ASSERT_EQ(edit_distance_banded_fast(a, b, k), edit_distance_banded(a, b, k))
            << "n=" << n << " k=" << k;
        ASSERT_EQ(edit_distance_bounded_fast(a, b, k), edit_distance_bounded(a, b, k))
            << "n=" << n << " limit=" << k;
      }
    }
  }
}

TEST(FastDispatch, KernelSelection) {
  const auto tiny_a = core::random_string(16, 4, 1);
  const auto tiny_b = core::random_string(16, 4, 2);
  EXPECT_EQ(edit_distance_fast_kernel(tiny_a, tiny_b), EditKernel::kScalar);
  const auto big_a = core::random_string(2000, 4, 3);
  const auto big_b = core::random_string(2000, 4, 4);
  EXPECT_EQ(edit_distance_fast_kernel(big_a, big_b), EditKernel::kMyers);
  // 2000 symbols = 32 blocks: a width-11 band is cheaper cell by cell, a
  // width-401 band clears the ~8-cells-per-word bar.
  EXPECT_EQ(edit_distance_banded_fast_kernel(big_a, big_b, 5),
            EditKernel::kScalarBanded);
  EXPECT_EQ(edit_distance_banded_fast_kernel(big_a, big_b, 200),
            EditKernel::kMyersBounded);
}

TEST(FastDispatch, ChargesModelledCellsNotWords) {
  const auto a = core::random_string(2000, 4, 5);
  const auto b = core::random_string(2000, 4, 6);
  std::uint64_t work = 0;
  edit_distance_fast(a, b, &work);
  EXPECT_EQ(work, 2000u * 2000u);  // full-DP cells, not ~n*blocks words
}

TEST(MyersBanded, KnownValues) {
  using Opt = std::optional<std::int64_t>;
  EXPECT_EQ(edit_distance_myers_banded(to_symbols("kitten"), to_symbols("sitting"), 3),
            Opt(3));
  EXPECT_EQ(edit_distance_myers_banded(to_symbols("kitten"), to_symbols("sitting"), 2),
            std::nullopt);
  EXPECT_EQ(edit_distance_myers_banded(to_symbols("abc"), to_symbols("abc"), 0), Opt(0));
  EXPECT_EQ(edit_distance_myers_banded(SymString{}, to_symbols("xy"), 1), std::nullopt);
  EXPECT_EQ(edit_distance_myers_banded(SymString{}, to_symbols("xy"), 2), Opt(2));
  EXPECT_EQ(edit_distance_myers_banded(to_symbols("a"), to_symbols("a"), 5), Opt(0));
}

TEST(MyersBanded, MatchesBandedAcrossAlphabetsAndLengths) {
  // The exactness argument says the windowed kernel's verdict must equal
  // the scalar band's for every cap, narrow through slack, either
  // orientation; lengths straddle the block boundaries where the window
  // slides mid-stripe.
  const std::int64_t lengths[] = {0, 1, 2, 63, 64, 65, 127, 129, 320, 1000};
  const Symbol alphabets[] = {2, 4, 26, 1000};
  for (const Symbol sigma : alphabets) {
    for (const std::int64_t n : lengths) {
      for (std::uint64_t seed = 0; seed < 3; ++seed) {
        const auto a =
            core::random_string(n, sigma, seed * 11 + static_cast<std::uint64_t>(n));
        const auto b =
            seed % 2 == 0
                ? core::plant_edits(a, n / 12 + static_cast<std::int64_t>(seed),
                                    seed + 29, false, sigma)
                      .text
                : core::random_string(
                      std::max<std::int64_t>(0, n + static_cast<std::int64_t>(seed) - 1),
                      sigma, seed + 77);
        for (const std::int64_t k : {std::int64_t{0}, std::int64_t{1}, std::int64_t{7},
                                     n / 16 + 1, n / 3 + 1, n + 4}) {
          ASSERT_EQ(edit_distance_myers_banded(a, b, k), edit_distance_banded(a, b, k))
              << "sigma=" << sigma << " n=" << n << " seed=" << seed << " k=" << k;
        }
      }
    }
  }
}

TEST(MyersBanded, WorkIsWindowWordsAndDeterministic) {
  // A narrow band over a multi-block pattern must touch far fewer words
  // than the full-width kernel, and the count must be a pure function of
  // the shapes (re-run identical).
  const auto a = core::random_string(2000, 4, 21);
  const auto b = core::plant_edits(a, 12, 22, false, 4).text;
  std::uint64_t banded = 0;
  std::uint64_t banded2 = 0;
  std::uint64_t full = 0;
  const auto d = edit_distance_myers_banded(a, b, 64, &banded);
  edit_distance_myers_banded(a, b, 64, &banded2);
  edit_distance_myers(a, b, &full);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(banded, banded2);
  // 2000-symbol pattern = 32 blocks/column full-width; the k=64 window
  // holds <= 4 blocks.
  EXPECT_LT(banded, full / 6);
}

TEST(OutputSensitive, MatchesScalarOnManyRandomCases) {
  for (std::uint64_t c = 0; c < 3000; ++c) {
    const auto sigma = static_cast<Symbol>(2 + (c * 37) % 999);
    const auto na = static_cast<std::int64_t>((c * 131) % 150);
    const auto nb = static_cast<std::int64_t>((c * 61 + 31) % 150);
    const auto a = core::random_string(na, sigma, c);
    const auto b = c % 3 == 0
                       ? core::plant_edits(a, nb / 8 + 1, c + 1, false, sigma).text
                       : core::random_string(nb, sigma, c + 10007);
    ASSERT_EQ(edit_distance_output_sensitive(a, b), edit_distance(a, b))
        << "case=" << c << " sigma=" << sigma;
  }
}

TEST(OutputSensitive, BoundedVerdictMatchesScalar) {
  for (std::uint64_t c = 0; c < 600; ++c) {
    const auto sigma = static_cast<Symbol>(2 + (c * 13) % 200);
    const auto n = static_cast<std::int64_t>(40 + (c * 97) % 400);
    const auto a = core::random_string(n, sigma, c);
    const auto b = core::plant_edits(a, static_cast<std::int64_t>(c % 60), c + 3,
                                     false, sigma)
                       .text;
    const auto limit = static_cast<std::int64_t>(c * 31 % 80);
    ASSERT_EQ(edit_distance_output_sensitive_bounded(a, b, limit),
              edit_distance_bounded(a, b, limit))
        << "case=" << c << " limit=" << limit;
  }
}

TEST(OutputSensitive, TrimEdgeCases) {
  using Opt = std::optional<std::int64_t>;
  // Identical, shared-prefix, shared-suffix, and fully-nested pairs: the
  // trim must never change the answer.
  const auto base = core::random_string(512, 4, 5);
  EXPECT_EQ(edit_distance_output_sensitive(base, base), 0);
  EXPECT_EQ(edit_distance_output_sensitive_bounded(base, base, 0), Opt(0));
  auto ins = base;
  ins.insert(ins.begin() + 200, Symbol{99});
  EXPECT_EQ(edit_distance_output_sensitive(base, ins), 1);
  EXPECT_EQ(edit_distance_output_sensitive_bounded(base, ins, 0), std::nullopt);
  SymString prefix(base.begin(), base.begin() + 100);
  EXPECT_EQ(edit_distance_output_sensitive(base, prefix), 412);
  EXPECT_EQ(edit_distance_output_sensitive(SymString{}, SymString{}), 0);
  EXPECT_EQ(edit_distance_output_sensitive(SymString{}, base), 512);
}

TEST(OutputSensitive, NearDuplicateWorkIsOutputSensitive) {
  // The point of the ladder: on a near-duplicate pair the modelled charge
  // must be a sliver of the full DP.
  const auto a = core::random_string(4000, 4, 9);
  const auto b = core::plant_edits(a, 4, 10, false, 4).text;
  std::uint64_t work = 0;
  ASSERT_EQ(edit_distance_output_sensitive(a, b, &work), edit_distance(a, b));
  EXPECT_LT(work, 4000u * 4000u / 50u);
}

/// Restores the entry ISA level when a test scope ends, pass or fail.
struct IsaGuard {
  Isa saved = active_isa();
  ~IsaGuard() { force_isa(saved); }
};

/// One lane pass of `pattern` over `chunk` checked against the bounded
/// kernel: under every lane kernel the host can run, every prefix of every
/// lane that the pass may answer (len >= m, or a kept column within the
/// lane's reach) returns what `edit_distance_myers_bounded(shorter, longer,
/// k)` returns on the lane's own text, distance and word meter, for each
/// bound in `bounds`.
void expect_lanes_match(const SymString& pattern, const SymString& chunk,
                        const std::vector<MyersPrefixPass::Lane>& lanes,
                        const std::vector<std::int64_t>& keep,
                        const std::vector<std::int64_t>& bounds) {
  using Answer = MyersPrefixPass::Answer;
  const auto m = static_cast<std::int64_t>(pattern.size());
  // want[l][len][bound index]; an empty row marks a prefix not answered.
  std::vector<std::vector<std::vector<Answer>>> want(lanes.size());
  for (std::size_t l = 0; l < lanes.size(); ++l) {
    for (std::int64_t len = 0; len <= lanes[l].reach; ++len) {
      want[l].emplace_back();
      if (len > 0 && len < m && !std::binary_search(keep.begin(), keep.end(), len)) continue;
      const SymView text = SymView(chunk).subspan(static_cast<std::size_t>(lanes[l].offset),
                                                  static_cast<std::size_t>(len));
      for (const std::int64_t k : bounds) {
        std::uint64_t words = 0;
        const auto d = len >= m ? edit_distance_myers_bounded(pattern, text, k, &words)
                                : edit_distance_myers_bounded(text, pattern, k, &words);
        want[l].back().push_back({d, words});
      }
    }
  }
  const IsaGuard guard;
  for (const Isa level : {Isa::kScalar, Isa::kAvx2, Isa::kAvx512}) {
    if (force_isa(level) != level) continue;  // the host lacks the level
    MyersPrefixPass pass(pattern);
    pass.run(chunk, lanes, keep);
    for (std::size_t l = 0; l < lanes.size(); ++l) {
      for (std::int64_t len = 0; len <= lanes[l].reach; ++len) {
        const auto& row = want[l][static_cast<std::size_t>(len)];
        for (std::size_t b = 0; b < row.size(); ++b) {
          const auto got = pass.bounded(l, len, bounds[b]);
          ASSERT_EQ(got.distance, row[b].distance)
              << isa_name(level) << " m=" << m << " lane " << l << " of " << lanes.size()
              << " offset " << lanes[l].offset << " len " << len << " k " << bounds[b];
          ASSERT_EQ(got.words, row[b].words)
              << isa_name(level) << " m=" << m << " lane " << l << " len " << len
              << " k " << bounds[b];
        }
      }
    }
  }
}

TEST(MyersPrefixPass, LanesMatchBoundedOnEveryPrefix) {
  // Patterns of 1 to 10 words, texts planted from the pattern (near, so
  // bounds keep some prefixes) and drawn at random (far, so reads abort),
  // sigma 4 on the dense symbol table and sigma 1000 spread wide onto the
  // hashed ids.  1 to 8 lanes: lane 0 reaches the chunk's end, so every
  // later lane runs past it on the zero row; the others start anywhere and
  // stop anywhere, and each keeps its own random columns below m, the pass
  // keeping their union.
  const std::int64_t lengths[] = {1, 40, 64, 65, 130, 200, 320, 449, 577, 640};
  std::uint64_t seed = 0;
  for (const std::int64_t m : lengths) {
    for (const bool spread : {false, true}) {
      ++seed;
      const Symbol sigma = spread ? 1000 : 4;
      auto pattern = core::random_string(m, sigma, seed);
      auto chunk = seed % 2 == 0 ? core::plant_edits(pattern, m / 8 + 1, seed + 1, false,
                                                     sigma)
                                       .text
                                 : core::random_string(m + m / 3, sigma, seed + 2);
      const auto extra = core::random_string(m / 2 + 3, sigma, seed + 3);
      chunk.insert(chunk.begin(), extra.begin(), extra.end());
      if (spread) {
        for (Symbol& c : pattern) c = c * 4099 + 7;
        for (Symbol& c : chunk) c = c * 4099 + 7;
      }
      const auto size = static_cast<std::int64_t>(chunk.size());
      Pcg32 rng = derive_stream(seed, 0x51);
      const std::size_t count = 1 + (seed * 3) % MyersPrefixPass::kMaxLanes;
      std::vector<MyersPrefixPass::Lane> lanes = {{0, size}};
      std::set<std::int64_t> keep;
      for (std::size_t l = 0; l < count; ++l) {
        if (l > 0) {
          const std::int64_t offset = rng.uniform(0, size);
          lanes.push_back({offset, rng.uniform(0, size - offset)});
        }
        for (std::int64_t len = 1; len < std::min(m, lanes[l].reach + 1); ++len) {
          if (rng.uniform(0, 3) == 0) keep.insert(len);
        }
      }
      SCOPED_TRACE(::testing::Message() << "m=" << m << " sigma=" << sigma
                                        << " lanes=" << lanes.size());
      expect_lanes_match(pattern, chunk, lanes, {keep.begin(), keep.end()},
                         {0, m / 8 + 1, m / 2 + 2, 2 * size});
    }
  }
}

TEST(MyersPrefixPass, EightLanesAtOneStartEqualOneLane) {
  // Lanes are independent: eight copies of one lane, and eight lanes one
  // column apart, answer as the same lanes run alone.
  const auto pattern = core::random_string(150, 4, 90);
  auto chunk = core::plant_edits(pattern, 12, 91, false, 4).text;
  const auto tail = core::random_string(40, 4, 92);
  chunk.insert(chunk.end(), tail.begin(), tail.end());
  const auto size = static_cast<std::int64_t>(chunk.size());
  std::vector<std::int64_t> keep;
  for (std::int64_t len = 1; len < 150; ++len) keep.push_back(len);
  MyersPrefixPass alone(pattern);
  MyersPrefixPass group(pattern);
  for (const std::int64_t step : {0, 1}) {
    std::vector<MyersPrefixPass::Lane> lanes;
    for (std::int64_t l = 0; l < 8; ++l) lanes.push_back({l * step, size - 8});
    group.run(chunk, lanes, keep);
    for (std::size_t l = 0; l < lanes.size(); ++l) {
      const MyersPrefixPass::Lane one[] = {lanes[l]};
      alone.run(chunk, one, keep);
      for (std::int64_t len = 0; len <= size - 8; ++len) {
        for (const std::int64_t k : {3, 20, 400}) {
          const auto want = alone.bounded(0, len, k);
          const auto got = group.bounded(l, len, k);
          ASSERT_EQ(got.distance, want.distance) << "lane " << l << " len " << len;
          ASSERT_EQ(got.words, want.words) << "lane " << l << " len " << len;
        }
      }
    }
  }
}

}  // namespace
}  // namespace mpcsd::seq
