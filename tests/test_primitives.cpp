// MPC one-round primitives: TeraSort-style sort, hash join, and the Ulam
// position-map round, all executed through the simulator with metering.
#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_map>

#include "common/rng.hpp"
#include "core/workload.hpp"
#include "mpc/primitives.hpp"

namespace mpcsd::mpc {
namespace {

std::vector<KeyValue> random_records(std::size_t n, std::uint64_t seed) {
  Pcg32 rng = derive_stream(seed, 0x50F7);
  std::vector<KeyValue> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(KeyValue{rng.uniform(-1000, 1000), static_cast<std::int64_t>(i)});
  }
  return out;
}

TEST(MpcSort, SortsAndUsesFourRounds) {
  Cluster cluster(ClusterConfig{});
  auto records = random_records(5000, 1);
  auto expected = records;
  std::sort(expected.begin(), expected.end(), [](const KeyValue& a, const KeyValue& b) {
    return a.key != b.key ? a.key < b.key : a.value < b.value;
  });
  const auto result = mpc_sort(cluster, records, 8);
  EXPECT_EQ(result.records, expected);
  EXPECT_EQ(cluster.trace().round_count(), 4u);
}

TEST(MpcSort, EmptyAndSingleton) {
  Cluster cluster(ClusterConfig{});
  EXPECT_TRUE(mpc_sort(cluster, {}, 4).records.empty());
  const std::vector<KeyValue> one{{7, 0}};
  EXPECT_EQ(mpc_sort(cluster, one, 4).records, one);
}

TEST(MpcSort, BalancedPartitionsKeepMemoryLow) {
  // With sampled splitters, no partition machine should hold much more
  // than n/machines records whp.
  Cluster cluster(ClusterConfig{});
  auto records = random_records(20000, 2);
  (void)mpc_sort(cluster, records, 16);
  const auto& rounds = cluster.trace().rounds();
  ASSERT_EQ(rounds.size(), 4u);
  const auto per_machine_bytes = 20000 * sizeof(KeyValue) / 16;
  EXPECT_LT(rounds[3].max_machine_memory, 8 * per_machine_bytes);
}

TEST(MpcSort, DeterministicGivenSeed) {
  auto run = [] {
    Cluster cluster(ClusterConfig{{.workers = 3},
                                  /*memory_limit_bytes=*/UINT64_MAX, /*seed=*/99});
    return mpc_sort(cluster, random_records(3000, 3), 8).records;
  };
  EXPECT_EQ(run(), run());
}

TEST(MpcHashJoin, MatchesReferenceJoin) {
  Cluster cluster(ClusterConfig{});
  std::vector<KeyValue> left;
  std::vector<KeyValue> right;
  for (std::int64_t i = 0; i < 500; ++i) left.push_back({i % 97, i});
  for (std::int64_t k = 0; k < 97; k += 2) right.push_back({k, 1000 + k});

  auto joined = mpc_hash_join(cluster, left, right, 8);
  std::unordered_map<std::int64_t, std::int64_t> rmap;
  for (const auto& kv : right) rmap.emplace(kv.key, kv.value);
  std::size_t expected = 0;
  for (const auto& kv : left) expected += rmap.count(kv.key);
  EXPECT_EQ(joined.size(), expected);
  for (const auto& j : joined) {
    EXPECT_EQ(j.right_value, rmap.at(j.key));
  }
  EXPECT_EQ(cluster.trace().round_count(), 2u);
}

TEST(MpcHashJoin, NoMatches) {
  Cluster cluster(ClusterConfig{});
  const std::vector<KeyValue> left{{1, 0}, {2, 1}};
  const std::vector<KeyValue> right{{5, 9}};
  EXPECT_TRUE(mpc_hash_join(cluster, left, right, 4).empty());
}

TEST(PositionMap, MatchesDirectComputation) {
  const auto s = core::random_permutation(800, 4);
  const auto t = core::plant_edits(s, 50, 5, true).text;
  Cluster cluster(ClusterConfig{});
  const auto positions = position_map_round(cluster, s, t, 8);
  ASSERT_EQ(positions.size(), s.size());
  std::unordered_map<Symbol, std::int64_t> expected;
  for (std::size_t j = 0; j < t.size(); ++j) expected.emplace(t[j], static_cast<std::int64_t>(j));
  for (std::size_t i = 0; i < s.size(); ++i) {
    const auto it = expected.find(s[i]);
    EXPECT_EQ(positions[i], it == expected.end() ? -1 : it->second) << "i=" << i;
  }
}

TEST(PositionMap, AllMissing) {
  SymString s{100, 101, 102};
  const auto t = core::random_permutation(50, 1);
  Cluster cluster(ClusterConfig{});
  const auto positions = position_map_round(cluster, s, t, 4);
  EXPECT_EQ(positions, (std::vector<std::int64_t>{-1, -1, -1}));
}

}  // namespace
}  // namespace mpcsd::mpc
