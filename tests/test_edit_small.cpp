// The two-round small-distance pipeline (Lemma 6): validity for every
// guess, quality when the guess is right, unit ablation, round/memory
// discipline.
#include <gtest/gtest.h>

#include <algorithm>
#include <span>

#include "core/workload.hpp"
#include "edit_mpc/small_distance.hpp"
#include "edit_mpc/solver.hpp"
#include "seq/edit_distance.hpp"

namespace mpcsd::edit_mpc {
namespace {

/// The per-candidate loop the block evaluator replaced: one unit_distance
/// call per (start, end) candidate.  The differential oracle.
std::vector<seq::Tuple> reference_tuples(const SmallTask& task,
                                         const SmallDistanceParams& params,
                                         const CandidateGeometry& geo,
                                         std::uint64_t* work) {
  const SymView chunk(task.chunk);
  const auto block_len = static_cast<std::int64_t>(task.block.size());
  const std::int64_t cap = params.unit == DistanceUnit::kExactBanded
                               ? 2 * params.delta_guess + 2
                               : 4 * params.delta_guess + 8;
  std::vector<seq::Tuple> tuples;
  for (const std::int64_t sp : task.starts) {
    for (const std::int64_t ep : candidate_ends(sp, block_len, geo)) {
      const SymView window =
          subview(chunk, {sp - task.chunk_begin, ep - task.chunk_begin});
      if (const auto e = unit_distance(task.block, window, params.unit,
                                       params.approx, cap, work)) {
        tuples.push_back(seq::Tuple{task.block_begin, task.block_begin + block_len,
                                    sp, ep, *e});
      }
    }
  }
  return tuples;
}

struct DiffCounts {
  std::size_t candidates = 0;
  std::size_t fallbacks = 0;
  std::size_t tuples = 0;
};

/// Every task of (s, t) at `block` x `guess`: the evaluator's tuples and
/// per-task work equal the oracle's, with the task's starts evaluated in
/// groups of eight (as `small_task_tuples` runs them) and of five (groups
/// that straddle eight-lane boundaries and leave a short last group).
DiffCounts expect_evaluator_matches(SymView s, SymView t, std::int64_t block,
                                    const SmallDistanceParams& params) {
  CandidateGeometry geo = small_geometry(static_cast<std::int64_t>(s.size()),
                                         static_cast<std::int64_t>(t.size()), params);
  geo.block_size = block;
  DiffCounts counts;
  for (const SmallTask& task : make_small_tasks(s, t, params, geo)) {
    std::uint64_t want_work = 0;
    const auto want = reference_tuples(task, params, geo, &want_work);
    for (const std::int64_t sp : task.starts) {
      counts.candidates +=
          candidate_ends(sp, static_cast<std::int64_t>(task.block.size()), geo).size();
    }
    std::size_t fallbacks = 0;
    for (const std::size_t group : {seq::MyersPrefixPass::kMaxLanes, std::size_t{5}}) {
      BlockEvaluator evaluator(task, params, geo);
      std::uint64_t got_work = 0;
      std::vector<seq::Tuple> got;
      const std::span<const std::int64_t> starts(task.starts);
      for (std::size_t i = 0; i < starts.size(); i += group) {
        evaluator.evaluate_starts(starts.subspan(i, std::min(group, starts.size() - i)),
                                  got, &got_work);
      }
      EXPECT_EQ(got, want) << "block " << task.block_begin << " len "
                           << task.block.size() << " guess " << params.delta_guess
                           << " group " << group;
      EXPECT_EQ(got_work, want_work) << "block " << task.block_begin << " len "
                                     << task.block.size() << " guess "
                                     << params.delta_guess << " group " << group;
      if (group != seq::MyersPrefixPass::kMaxLanes) {
        EXPECT_EQ(evaluator.fallbacks(), fallbacks) << "group " << group;
      }
      fallbacks = evaluator.fallbacks();
    }
    counts.fallbacks += fallbacks;
    counts.tuples += want.size();
  }
  return counts;
}

/// Symbols of an alphabet of `sigma` values spread wide apart, so the
/// Myers masks take their hashed-id path instead of the dense table.
SymString spread_symbols(SymString s) {
  for (Symbol& c : s) c = c * 4099 + 7;
  return s;
}

SmallDistanceParams base_params(std::int64_t guess, DistanceUnit unit) {
  SmallDistanceParams p;
  p.eps_prime = 0.2;
  p.x = 0.3;
  p.delta_guess = guess;
  p.unit = unit;
  return p;
}

TEST(EditSmall, ExactUnitSandwichAtRightGuess) {
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    const auto s = core::random_string(500, 4, seed);
    const auto t = core::plant_edits(s, 15, seed + 2, false).text;
    const auto exact = seq::edit_distance(s, t);
    const auto result =
        run_small_distance(s, t, base_params(exact + 2, DistanceUnit::kExactBanded));
    ASSERT_GE(result.distance, exact) << "seed=" << seed;
    // Exact unit + sum gaps: within 1+O(eps') of exact once covered.
    ASSERT_LE(static_cast<double>(result.distance),
              1.5 * static_cast<double>(exact) + 2.0)
        << "seed=" << seed << " exact=" << exact;
  }
}

TEST(EditSmall, ValidUpperBoundEvenForWrongGuess) {
  const auto s = core::random_string(400, 4, 3);
  const auto t = core::plant_edits(s, 40, 4, false).text;
  const auto exact = seq::edit_distance(s, t);
  for (const std::int64_t guess : {1L, 5L, 20L, 200L}) {
    const auto result =
        run_small_distance(s, t, base_params(guess, DistanceUnit::kExactBanded));
    ASSERT_GE(result.distance, exact) << "guess=" << guess;
    ASSERT_LE(result.distance,
              static_cast<std::int64_t>(s.size() + t.size())) << "guess=" << guess;
  }
}

TEST(EditSmall, Approx3UnitWithinConstantFactor) {
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    const auto s = core::random_string(600, 4, seed + 50);
    const auto t = core::plant_edits(s, 20, seed + 51, false).text;
    const auto exact = seq::edit_distance(s, t);
    auto params = base_params(exact + 2, DistanceUnit::kApprox3);
    params.approx.epsilon = 0.25;
    const auto result = run_small_distance(s, t, params);
    ASSERT_GE(result.distance, exact);
    ASSERT_LE(static_cast<double>(result.distance),
              5.0 * static_cast<double>(exact) + 8.0)
        << "seed=" << seed << " exact=" << exact;
  }
}

TEST(EditSmall, TwoRounds) {
  const auto s = core::random_string(300, 4, 9);
  const auto t = core::plant_edits(s, 10, 10, false).text;
  const auto result = run_small_distance(s, t, base_params(20, DistanceUnit::kExactBanded));
  EXPECT_EQ(result.trace.round_count(), 2u);
}

TEST(EditSmall, IdenticalStringsZeroAtAnyGuess) {
  const auto s = core::random_string(400, 4, 11);
  const auto result = run_small_distance(s, s, base_params(8, DistanceUnit::kExactBanded));
  EXPECT_EQ(result.distance, 0);
}

TEST(EditSmall, BatchingReducesMachinesVsBaselineLayout) {
  const auto s = core::random_string(600, 4, 12);
  const auto t = core::plant_edits(s, 30, 13, false).text;
  auto batched = base_params(50, DistanceUnit::kExactBanded);
  auto single = batched;
  single.batch_starts = false;
  const auto rb = run_small_distance(s, t, batched);
  const auto rs = run_small_distance(s, t, single);
  EXPECT_LT(rb.trace.rounds()[0].machines, rs.trace.rounds()[0].machines);
  EXPECT_EQ(rb.distance, rs.distance);  // same tuples, same combine
}

TEST(EditSmall, MemoryCapHolds) {
  const auto s = core::random_string(2000, 4, 14);
  const auto t = core::plant_edits(s, 30, 15, false).text;
  EditMpcParams cap_params;
  cap_params.x = 0.3;
  cap_params.epsilon = 2.2;  // eps' = 0.1
  auto params = base_params(40, DistanceUnit::kExactBanded);
  params.memory_cap_bytes = edit_memory_cap_bytes(2000, cap_params);
  params.strict_memory = true;
  const auto result = run_small_distance(s, t, params);
  EXPECT_EQ(result.trace.memory_violations(), 0u);
}

TEST(EditSmall, DeterministicGivenSeed) {
  const auto s = core::random_string(500, 4, 16);
  const auto t = core::plant_edits(s, 25, 17, false).text;
  auto params = base_params(30, DistanceUnit::kApprox3);
  const auto r1 = run_small_distance(s, t, params);
  const auto r2 = run_small_distance(s, t, params);
  EXPECT_EQ(r1.distance, r2.distance);
  EXPECT_EQ(r1.trace.structural_hash(), r2.trace.structural_hash());
}

TEST(EditSmall, EvaluatorMatchesUnitDistanceAcrossBlockLengths) {
  // Block lengths across the 64-bit word boundaries and the exact cutoff
  // (513 > 512 runs the window cover, i.e. falls back); n = 2B + 7 adds a
  // short last block; t a little shorter than s clamps the last block's
  // ends at n̄.  Guesses span censored-everywhere (2) to mostly-kept.
  std::size_t fast = 0;
  for (const std::int64_t block : {1L, 63L, 64L, 65L, 181L, 304L, 512L, 513L}) {
    const std::int64_t n = 2 * block + 7;
    const auto s = core::random_string(n, 4, static_cast<std::uint64_t>(block));
    auto t = core::plant_edits(s, std::max<std::int64_t>(1, n / 16),
                               static_cast<std::uint64_t>(block) + 1, false)
                 .text;
    t.resize(t.size() - std::min<std::size_t>(t.size() - 1, 3));
    const std::vector<std::int64_t> guesses =
        block == 513 ? std::vector<std::int64_t>{2}
                     : std::vector<std::int64_t>{2, n / 16, n / 4};
    for (const std::int64_t guess : guesses) {
      const auto counts = expect_evaluator_matches(
          s, t, block, base_params(guess, DistanceUnit::kApprox3));
      if (block == 1 || block == 513) {
        EXPECT_EQ(counts.fallbacks, counts.candidates) << "block " << block;
      }
      fast += counts.candidates - counts.fallbacks;
    }
  }
  EXPECT_GT(fast, 0U);
}

TEST(EditSmall, EvaluatorMatchesOnCensoredPairsBothOrientations) {
  // Unrelated strings: distances far above the cap, so pass reads abort,
  // both with the block as pattern (windows >= B) and with the window as
  // pattern (windows < B).
  for (const Symbol sigma : {4, 8, 1000}) {
    auto s = core::random_string(3 * 181, sigma, 40 + static_cast<std::uint64_t>(sigma));
    auto t = core::random_string(3 * 181 + 20, sigma, 41 + static_cast<std::uint64_t>(sigma));
    if (sigma == 1000) {
      s = spread_symbols(std::move(s));
      t = spread_symbols(std::move(t));
    }
    for (const std::int64_t guess : {1L, 6L, 30L}) {
      const auto counts =
          expect_evaluator_matches(s, t, 181, base_params(guess, DistanceUnit::kApprox3));
      EXPECT_LT(counts.fallbacks, counts.candidates) << "sigma " << sigma;
    }
  }
}

TEST(EditSmall, EvaluatorMatchesOnLargeAlphabets) {
  // sigma = 1000 spread wide: MyersMasks' hashed-id path, planted pairs.
  for (const std::int64_t block : {64L, 181L, 304L}) {
    const auto s = spread_symbols(core::random_string(3 * block, 1000, 60));
    const auto t = spread_symbols(core::plant_edits(core::random_string(3 * block, 1000, 60),
                                                    block / 8, 61, false, 1000)
                                      .text);
    expect_evaluator_matches(s, t, block, base_params(block / 8, DistanceUnit::kApprox3));
  }
}

TEST(EditSmall, EvaluatorFallsBackOnTinyAndUnprofitableBands) {
  // Tiny: a 12-symbol block against ~12-symbol windows is <= kTinyCells.
  const auto s = core::random_string(300, 4, 70);
  const auto t = core::plant_edits(s, 20, 71, false).text;
  auto tiny = expect_evaluator_matches(s, t, 12, base_params(4, DistanceUnit::kApprox3));
  EXPECT_EQ(tiny.fallbacks, tiny.candidates);
  // Unprofitable: with the exact cutoff raised, a 700-symbol block (11
  // words) at guess 0 caps the band at 42, below kCellsPerWord per word.
  const auto s2 = core::random_string(1400, 4, 72);
  const auto t2 = core::plant_edits(s2, 30, 73, false).text;
  auto wide = base_params(0, DistanceUnit::kApprox3);
  wide.approx.exact_cutoff = 1024;
  const auto unprofitable = expect_evaluator_matches(s2, t2, 700, wide);
  EXPECT_EQ(unprofitable.fallbacks, unprofitable.candidates);
  // The same blocks at a larger guess are profitable again: read off passes.
  wide.delta_guess = 20;
  const auto profitable = expect_evaluator_matches(s2, t2, 700, wide);
  EXPECT_LT(profitable.fallbacks, profitable.candidates);
}

TEST(EditSmall, EvaluatorMatchesExactBandedUnit) {
  const auto s = core::random_string(500, 4, 80);
  const auto t = core::plant_edits(s, 25, 81, false).text;
  for (const std::int64_t guess : {3L, 25L}) {
    const auto counts =
        expect_evaluator_matches(s, t, 120, base_params(guess, DistanceUnit::kExactBanded));
    EXPECT_EQ(counts.fallbacks, counts.candidates);
  }
}

TEST(EditSmall, StatsPinnedForOneTask) {
  // One edit_ladder-shaped task (n = 1024, sigma = 8, n/16 planted edits,
  // the solver's x and eps' at guess 64, the middle block's first batch).
  // Literals recorded from the per-candidate loop the block evaluator
  // replaced: it must keep the same tuples and charge the same work.
  const auto s = core::random_string(1024, 8, 5);
  const auto t = core::plant_edits(s, 64, 6, false, 8).text;
  SmallDistanceParams params;
  params.eps_prime = 0.15;
  params.x = 0.25;
  params.delta_guess = 64;
  const CandidateGeometry geo = small_geometry(1024, static_cast<std::int64_t>(t.size()), params);
  const auto tasks = make_small_tasks(s, t, params, geo);
  const SmallTask* task = nullptr;
  for (const SmallTask& candidate : tasks) {
    if (candidate.block_begin >= 512) {
      task = &candidate;
      break;
    }
  }
  ASSERT_NE(task, nullptr);
  std::uint64_t work = 0;
  const auto tuples = small_task_tuples(*task, params, geo, &work);
  EXPECT_EQ(task->block_begin, 546);
  EXPECT_EQ(task->starts.size(), 130U);
  EXPECT_EQ(tuples.size(), 6370U);
  EXPECT_EQ(work, 212223440U);
}

}  // namespace
}  // namespace mpcsd::edit_mpc
