// The four-round large-distance pipeline (Lemma 8): validity, the
// representative/extension machinery, round discipline.
#include <gtest/gtest.h>

#include "core/workload.hpp"
#include "edit_mpc/large_distance.hpp"
#include "seq/edit_distance.hpp"

namespace mpcsd::edit_mpc {
namespace {

LargeDistanceParams base_params(std::int64_t guess) {
  LargeDistanceParams p;
  p.eps_prime = 0.25;
  p.x = 0.25;
  p.delta_guess = guess;
  p.rep_constant = 4.0;       // generous sampling at test sizes
  p.sample_constant = 4.0;
  p.max_representatives = 16; // keep round-1 cost sane at toy scale
  return p;
}

TEST(EditLarge, FourRounds) {
  const auto s = core::random_string(400, 4, 1);
  const auto t = core::block_shuffle(s, 100, 2);
  const auto result = run_large_distance(s, t, base_params(300));
  EXPECT_EQ(result.trace.round_count(), 4u);
}

TEST(EditLarge, ValidUpperBound) {
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    const auto s = core::random_string(500, 4, seed);
    const auto t = core::block_shuffle(s, 125, seed + 9);
    const auto exact = seq::edit_distance(s, t);
    for (const std::int64_t guess : {100L, 300L, 500L}) {
      const auto result = run_large_distance(s, t, base_params(guess));
      ASSERT_GE(result.distance, exact) << "seed=" << seed << " guess=" << guess;
      ASSERT_LE(result.distance, static_cast<std::int64_t>(s.size() + t.size()));
    }
  }
}

TEST(EditLarge, QualityAtRightGuessOnShuffledBlocks) {
  // Block shuffles are the large-distance showcase: blocks are far from
  // their diagonal but identical to some window, so representative pairing
  // plus extension should find near-zero-cost tuples.
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    const auto s = core::random_string(600, 6, seed + 30);
    const auto t = core::block_shuffle(s, 150, seed + 31);
    const auto exact = seq::edit_distance(s, t);
    if (exact == 0) continue;
    auto params = base_params(exact + 10);
    const auto result = run_large_distance(s, t, params);
    ASSERT_GE(result.distance, exact) << "seed=" << seed;
    ASSERT_LE(static_cast<double>(result.distance),
              4.0 * static_cast<double>(exact) + 10.0)
        << "seed=" << seed << " exact=" << exact;
  }
}

TEST(EditLarge, RandomUnrelatedStrings) {
  const auto s = core::random_string(400, 4, 40);
  const auto t = core::random_string(400, 4, 41);
  const auto exact = seq::edit_distance(s, t);
  const auto result = run_large_distance(s, t, base_params(exact + 5));
  EXPECT_GE(result.distance, exact);
  EXPECT_LE(static_cast<double>(result.distance),
            4.0 * static_cast<double>(exact) + 10.0);
}

TEST(EditLarge, DeterministicGivenSeed) {
  const auto s = core::random_string(500, 4, 50);
  const auto t = core::block_shuffle(s, 100, 51);
  auto params = base_params(250);
  params.seed = 777;
  const auto r1 = run_large_distance(s, t, params);
  const auto r2 = run_large_distance(s, t, params);
  EXPECT_EQ(r1.distance, r2.distance);
  EXPECT_EQ(r1.trace.structural_hash(), r2.trace.structural_hash());
  EXPECT_EQ(r1.extension_requests, r2.extension_requests);
}

TEST(EditLarge, RepresentativesAndExtensionsActuallyFire) {
  const auto s = core::random_string(800, 6, 60);
  const auto t = core::block_shuffle(s, 100, 61);
  auto params = base_params(600);
  const auto result = run_large_distance(s, t, params);
  EXPECT_GT(result.representative_count, 0u);
  // Tuples reach the combine round.
  const mpc::RoundReport& combine = result.trace.rounds().back();
  EXPECT_EQ(combine.label, "edit:large:combine");
  EXPECT_GT(combine.total_input_bytes, 0u);
}

TEST(EditLarge, IdenticalStrings) {
  const auto s = core::random_string(300, 4, 70);
  const auto result = run_large_distance(s, s, base_params(100));
  // The zero-distance candidates sit on the diagonal; result must be 0 or
  // at least tiny relative to n (identical inputs short-circuit upstream in
  // the solver; the pipeline itself must still be valid).
  EXPECT_GE(result.distance, 0);
  EXPECT_LE(result.distance, 30);
}

}  // namespace
}  // namespace mpcsd::edit_mpc
