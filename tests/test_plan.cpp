// The declarative round-plan layer: wire codecs, typed channels, stage
// order validation, per-stage metering, and RoundOptions (per-machine caps
// + report export) used by the batch driver.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "mpc/plan.hpp"

namespace mpcsd::mpc {
namespace {

template <typename T>
Bytes encode(const T& value) {
  ByteWriter w;
  Codec<T>::encode(w, value);
  return std::move(w).take();
}

template <typename T>
T roundtrip(const T& value) {
  const Bytes bytes = encode(value);
  ByteReader r(bytes);
  return Codec<T>::decode(r);
}

// ---- codecs ----

TEST(PlanCodec, PodMatchesByteWriterPut) {
  const std::int64_t v = -1234567890123LL;
  ByteWriter w;
  w.put(v);
  EXPECT_EQ(encode(v), std::move(w).take());
  EXPECT_EQ(roundtrip(v), v);
}

TEST(PlanCodec, PodVectorMatchesPutVector) {
  const std::vector<std::int64_t> v{1, -2, 3, 1LL << 40};
  ByteWriter w;
  w.put_vector(v);
  EXPECT_EQ(encode(v), std::move(w).take());
  EXPECT_EQ(roundtrip(v), v);
}

TEST(PlanCodec, StringRoundtrip) {
  const std::string s = "plan layer";
  EXPECT_EQ(roundtrip(s), s);
}

struct WirePoint {
  std::int32_t id = 0;
  std::vector<std::int64_t> coords;

  static constexpr auto fields() {
    return std::make_tuple(&WirePoint::id, &WirePoint::coords);
  }
  friend bool operator==(const WirePoint&, const WirePoint&) = default;
};

TEST(PlanCodec, WireStructEncodesFieldsInOrder) {
  const WirePoint p{7, {10, 20, 30}};
  // Field order on the wire: id then coords, exactly as a hand-rolled
  // put + put_vector sequence.
  ByteWriter w;
  w.put(p.id);
  w.put_vector(p.coords);
  EXPECT_EQ(encode(p), std::move(w).take());
  EXPECT_EQ(roundtrip(p), p);
}

TEST(PlanCodec, NestedStructVector) {
  const std::vector<WirePoint> v{{1, {2}}, {3, {}}, {4, {5, 6}}};
  EXPECT_EQ(roundtrip(v), v);
  // Composite vectors carry a u64 count prefix.
  const Bytes bytes = encode(v);
  ByteReader r(bytes);
  EXPECT_EQ(r.get<std::uint64_t>(), 3u);
}

TEST(PlanCodec, VariantTagIsAlternativeIndex) {
  using V = std::variant<std::int64_t, WirePoint>;
  const V a = std::int64_t{42};
  const V b = WirePoint{9, {1}};
  {
    const Bytes bytes = encode(a);
    ByteReader r(bytes);
    EXPECT_EQ(r.get<std::uint8_t>(), 0);
  }
  {
    const Bytes bytes = encode(b);
    ByteReader r(bytes);
    EXPECT_EQ(r.get<std::uint8_t>(), 1);
  }
  EXPECT_EQ(roundtrip(a), a);
  EXPECT_EQ(roundtrip(b), b);
}

TEST(PlanCodec, InboxDecodesWholeMailbox) {
  ByteWriter w;
  Codec<std::int64_t>::encode(w, 1);
  Codec<std::int64_t>::encode(w, 2);
  Codec<std::int64_t>::encode(w, 3);
  const Bytes bytes = std::move(w).take();
  ByteReader r(bytes);
  const auto inbox = Codec<Inbox<std::int64_t>>::decode(r);
  EXPECT_EQ(inbox.messages, (std::vector<std::int64_t>{1, 2, 3}));
}

// ---- driver ----

struct Ping {
  std::int64_t value = 0;

  static constexpr auto fields() { return std::make_tuple(&Ping::value); }
};

Plan two_stage_plan() {
  return Plan{"test",
              {
                  {"stage:a", "Ping", "ints"},
                  {"stage:b", "Inbox<int>", "echo"},
              }};
}

constexpr Channel<std::int64_t> kInts{0, "ints"};
constexpr Channel<std::vector<std::int64_t>> kEcho{1, "echo"};

TEST(PlanDriver, RunsDeclaredStagesAndMetersGlue) {
  Driver driver(two_stage_plan(), ClusterConfig{});
  const Stage<Ping> a{"stage:a", [](StageContext<Ping>& ctx) {
                        ctx.send(kInts, ctx.in().value * 2);
                      }};
  const auto mail =
      driver.run(a, Driver::shard<Ping>({Ping{10}, Ping{20}, Ping{30}}));
  EXPECT_EQ(driver.receive(mail, kInts), (std::vector<std::int64_t>{20, 40, 60}));

  // The inbox contents come back as mail rather than through a captured
  // host variable, so the test holds under every backend (forked workers
  // cannot write host memory).
  const Stage<Inbox<std::int64_t>> b{
      "stage:b", [](StageContext<Inbox<std::int64_t>>& ctx) {
        ctx.send(kEcho, ctx.in().messages);
      }};
  const auto echo = driver.run_views(b, {gather_view(mail, kInts.mailbox)});
  driver.finish();

  EXPECT_EQ(driver.receive(echo, kEcho),
            (std::vector<std::vector<std::int64_t>>{{20, 40, 60}}));
  ASSERT_EQ(driver.trace().round_count(), 2u);
  EXPECT_EQ(driver.trace().rounds()[0].label, "stage:a");
  EXPECT_EQ(driver.trace().rounds()[1].label, "stage:b");
  // Driver glue time (sharding/routing between rounds) is stamped.
  EXPECT_GE(driver.trace().rounds()[0].driver_seconds, 0.0);
}

TEST(PlanDriver, RejectsWrongStageLabel) {
  Driver driver(two_stage_plan(), ClusterConfig{});
  const Stage<Ping> wrong{"stage:b", [](StageContext<Ping>&) {}};
  EXPECT_THROW(driver.run(wrong, Driver::shard<Ping>({Ping{1}})), PlanError);
}

TEST(PlanDriver, RejectsStagePastEndOfPlan) {
  Driver driver(Plan{"one", {{"only", "-", "-"}}}, ClusterConfig{});
  const Stage<Ping> only{"only", [](StageContext<Ping>&) {}};
  driver.run(only, Driver::shard<Ping>({Ping{1}}));
  EXPECT_THROW(driver.run(only, Driver::shard<Ping>({Ping{1}})), PlanError);
}

TEST(PlanDriver, FinishRequiresAllStages) {
  Driver driver(two_stage_plan(), ClusterConfig{});
  EXPECT_THROW(driver.finish(), PlanError);
}

TEST(PlanDriver, DescribeListsStages) {
  const std::string d = two_stage_plan().describe();
  EXPECT_NE(d.find("stage:a"), std::string::npos);
  EXPECT_NE(d.find("stage:b"), std::string::npos);
}

// ---- RoundOptions: per-machine caps + report export ----

TEST(RoundOptions, PerMachineLimitsOverrideClusterCap) {
  ClusterConfig config;
  config.memory_limit_bytes = UINT64_MAX;  // cluster-wide: unlimited
  Cluster cluster(config);

  std::vector<Bytes> inputs(2);
  {
    ByteWriter w0;
    w0.put<std::int64_t>(1);
    inputs[0] = std::move(w0).take();
    ByteWriter w1;
    w1.put<std::int64_t>(2);
    inputs[1] = std::move(w1).take();
  }
  // Machine 0 gets a cap its scratch will blow; machine 1 gets headroom.
  const std::vector<std::uint64_t> limits{16, 1 << 20};
  std::vector<MachineReport> reports;
  RoundOptions options;
  options.machine_memory_limits = &limits;
  options.machine_reports = &reports;
  cluster.run_round(
      "capped", inputs,
      [](MachineContext& ctx) { ctx.charge_scratch(1024); }, options);

  ASSERT_EQ(cluster.trace().round_count(), 1u);
  EXPECT_EQ(cluster.trace().rounds()[0].memory_violations, 1u);
  ASSERT_EQ(reports.size(), 2u);
  EXPECT_EQ(reports[0].scratch_bytes, 1024u);
  EXPECT_EQ(reports[0].input_bytes, 8u);
  EXPECT_EQ(reports[1].scratch_bytes, 1024u);
}

TEST(RoundOptions, StrictModeThrowsOnPerMachineCap) {
  ClusterConfig config;
  config.strict_memory = true;
  Cluster cluster(config);
  const std::vector<std::uint64_t> limits{4};
  RoundOptions options;
  options.machine_memory_limits = &limits;
  EXPECT_THROW(cluster.run_round(
                   "strict", std::vector<Bytes>(1),
                   [](MachineContext& ctx) { ctx.charge_scratch(64); }, options),
               MemoryLimitExceeded);
}

TEST(RoundOptions, MismatchedLimitCountIsAnError) {
  Cluster cluster(ClusterConfig{});
  const std::vector<std::uint64_t> limits{1, 2, 3};
  RoundOptions options;
  options.machine_memory_limits = &limits;
  EXPECT_THROW(cluster.run_round("mismatch", std::vector<Bytes>(2),
                                 [](MachineContext&) {}, options),
               std::invalid_argument);
}

}  // namespace
}  // namespace mpcsd::mpc
