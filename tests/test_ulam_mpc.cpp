// Theorem 4 end-to-end: the two-round Ulam MPC pipeline sandwiches the
// exact distance (validity + 1+eps quality), respects the round budget and
// the per-machine memory cap, and is deterministic.
#include <gtest/gtest.h>

#include <cmath>

#include "core/workload.hpp"
#include "seq/ulam.hpp"
#include "ulam_mpc/solver.hpp"

namespace mpcsd::ulam_mpc {
namespace {

struct Workload {
  SymString s;
  SymString t;
  std::int64_t exact = 0;
};

Workload planted(std::int64_t n, std::int64_t k, std::uint64_t seed) {
  Workload w;
  w.s = core::random_permutation(n, seed);
  w.t = core::plant_edits(w.s, k, seed + 1, true).text;
  w.exact = seq::ulam_distance(w.s, w.t);
  return w;
}

TEST(UlamMpc, IdenticalStrings) {
  const auto s = core::random_permutation(500, 1);
  UlamMpcParams params;
  const auto result = ulam_distance_mpc(s, s, params);
  EXPECT_EQ(result.distance, 0);
}

TEST(UlamMpc, EmptyString) {
  const auto t = core::random_permutation(10, 2);
  EXPECT_EQ(ulam_distance_mpc(SymString{}, t).distance, 10);
}

TEST(UlamMpc, TwoRoundsAlways) {
  const auto w = planted(400, 20, 3);
  const auto result = ulam_distance_mpc(w.s, w.t);
  EXPECT_EQ(result.trace.round_count(), 2u);
}

class UlamMpcSandwich
    : public ::testing::TestWithParam<std::tuple<std::int64_t, std::int64_t, double>> {};

TEST_P(UlamMpcSandwich, ValidAndWithinFactor) {
  const auto [n, k, eps] = GetParam();
  for (std::uint64_t seed = 0; seed < 3; ++seed) {
    const auto w = planted(n, k, seed * 31 + static_cast<std::uint64_t>(n + k));
    UlamMpcParams params;
    params.epsilon = eps;
    params.x = 1.0 / 3;
    params.seed = seed;
    const auto result = ulam_distance_mpc(w.s, w.t, params);
    ASSERT_GE(result.distance, w.exact)
        << "n=" << n << " k=" << k << " eps=" << eps << " seed=" << seed;
    ASSERT_LE(static_cast<double>(result.distance),
              (1.0 + eps) * static_cast<double>(w.exact) + 2.0)
        << "n=" << n << " k=" << k << " eps=" << eps << " seed=" << seed
        << " exact=" << w.exact;
  }
}

INSTANTIATE_TEST_SUITE_P(
    SizesEditsEpsilons, UlamMpcSandwich,
    ::testing::Combine(::testing::Values<std::int64_t>(100, 500, 2000),
                       ::testing::Values<std::int64_t>(0, 3, 25, 150),
                       ::testing::Values(0.5, 1.0)));

TEST(UlamMpc, HighDistanceRegime) {
  // Completely unrelated permutations: distance ~ n.
  const auto s = core::random_permutation(600, 5);
  const auto t = core::random_permutation(600, 999);
  const auto exact = seq::ulam_distance(s, t);
  UlamMpcParams params;
  params.epsilon = 0.5;
  const auto result = ulam_distance_mpc(s, t, params);
  EXPECT_GE(result.distance, exact);
  EXPECT_LE(static_cast<double>(result.distance), 1.5 * static_cast<double>(exact) + 2.0);
}

TEST(UlamMpc, BlockShuffleAdversarial) {
  const auto s = core::random_permutation(800, 6);
  const auto t = core::block_shuffle(s, 100, 7);
  const auto exact = seq::ulam_distance(s, t);
  UlamMpcParams params;
  params.epsilon = 0.5;
  const auto result = ulam_distance_mpc(s, t, params);
  EXPECT_GE(result.distance, exact);
  EXPECT_LE(static_cast<double>(result.distance), 1.5 * static_cast<double>(exact) + 2.0);
}

TEST(UlamMpc, DeterministicGivenSeed) {
  const auto w = planted(700, 40, 8);
  UlamMpcParams params;
  params.seed = 12345;
  const auto r1 = ulam_distance_mpc(w.s, w.t, params);
  const auto r2 = ulam_distance_mpc(w.s, w.t, params);
  EXPECT_EQ(r1.distance, r2.distance);
  EXPECT_EQ(r1.trace.structural_hash(), r2.trace.structural_hash());
}

TEST(UlamMpc, MemoryCapRespected) {
  const auto w = planted(2000, 60, 9);
  UlamMpcParams params;
  params.x = 1.0 / 3;
  params.strict_memory = true;  // throws on violation
  const auto result = ulam_distance_mpc(w.s, w.t, params);
  EXPECT_EQ(result.trace.memory_violations(), 0u);
}

TEST(UlamMpc, MemoryCapScalesAsNPowOneMinusX) {
  // The cap formula must be Õ(n^{1-x}): growing n by 16x grows the cap by
  // ~16^{1-x} up to a logarithmic factor.
  UlamMpcParams params;
  params.x = 1.0 / 3;
  const double c1 = static_cast<double>(ulam_memory_cap_bytes(4000, params));
  const double c2 = static_cast<double>(ulam_memory_cap_bytes(64000, params));
  const double growth = c2 / c1;
  const double ideal = std::pow(16.0, 1.0 - params.x);
  EXPECT_GT(growth, ideal * 0.8);
  EXPECT_LT(growth, ideal * 1.6);  // log slack
}

TEST(UlamMpc, MachineCountMatchesBlockCount) {
  const auto w = planted(1000, 10, 10);
  UlamMpcParams params;
  params.x = 0.4;
  const auto result = ulam_distance_mpc(w.s, w.t, params);
  EXPECT_EQ(result.trace.rounds()[0].machines, result.block_count);
  EXPECT_EQ(result.trace.rounds()[1].machines, 1u);
}

TEST(UlamMpc, InModelPositionMapAgrees) {
  // Running the position map as an in-model hash join adds two rounds but
  // must not change the answer.
  const auto w = planted(600, 30, 21);
  UlamMpcParams driver_side;
  driver_side.seed = 5;
  UlamMpcParams in_model = driver_side;
  in_model.in_model_position_map = true;
  const auto r1 = ulam_distance_mpc(w.s, w.t, driver_side);
  const auto r2 = ulam_distance_mpc(w.s, w.t, in_model);
  EXPECT_EQ(r1.distance, r2.distance);
  EXPECT_EQ(r1.trace.round_count(), 2u);
  EXPECT_EQ(r2.trace.round_count(), 4u);
}

TEST(UlamMpc, DifferentLengthInputs) {
  // 100 deletions only: |t| = |s| - 100.
  auto s = core::random_permutation(900, 12);
  SymString t(s.begin() + 50, s.end() - 50);
  const auto exact = seq::ulam_distance(s, t);
  ASSERT_EQ(exact, 100);
  const auto result = ulam_distance_mpc(s, t);
  EXPECT_GE(result.distance, exact);
  EXPECT_LE(static_cast<double>(result.distance), 1.5 * 100.0 + 2.0);
}

}  // namespace
}  // namespace mpcsd::ulam_mpc
