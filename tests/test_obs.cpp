// Tests for the observability spine (src/obs/) and the trace-composition
// edge cases it leans on.
//
//   * ExecutionTrace::append_sequential / merge_parallel edge cases: empty
//     trace on either side, unequal round counts, violation propagation.
//   * Recorder/Span semantics: null and sink-less recorders are inert,
//     args chain, finish is idempotent, moves transfer ownership.
//   * Sinks: JSONL round-trip parse, Chrome trace-event schema fields,
//     aggregate rollup arithmetic.
//   * Thread safety: concurrent emission from ThreadPool::parallel_for.
//   * Metering neutrality: attaching a recorder to the ulam/edit solvers
//     and to distance_batch (both modes) cannot change structural_hash().
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/thread_pool.hpp"
#include "core/api.hpp"
#include "obs/recorder.hpp"
#include "obs/sinks.hpp"

namespace {

using namespace mpcsd;

// ---------------------------------------------------------------------------
// ExecutionTrace composition edge cases
// ---------------------------------------------------------------------------

mpc::RoundReport make_round(const char* label, std::size_t machines,
                            std::uint64_t work, std::uint64_t comm,
                            std::uint64_t mem, std::size_t violations) {
  mpc::RoundReport r;
  r.label = label;
  r.machines = machines;
  r.total_work = work;
  r.max_machine_work = work;
  r.total_comm_bytes = comm;
  r.total_input_bytes = comm;
  r.max_machine_memory = mem;
  r.memory_violations = violations;
  r.wall_seconds = 0.5;
  r.driver_seconds = 0.25;
  return r;
}

TEST(ExecutionTraceEdge, AppendSequentialEmptyEitherSide) {
  mpc::ExecutionTrace empty;
  mpc::ExecutionTrace one;
  one.add_round(make_round("a", 2, 10, 100, 64, 0));

  mpc::ExecutionTrace lhs = one;
  lhs.append_sequential(empty);
  EXPECT_EQ(lhs.round_count(), 1u);
  EXPECT_EQ(lhs.structural_hash(), one.structural_hash());

  mpc::ExecutionTrace rhs;
  rhs.append_sequential(one);
  EXPECT_EQ(rhs.round_count(), 1u);
  EXPECT_EQ(rhs.structural_hash(), one.structural_hash());

  mpc::ExecutionTrace both;
  both.append_sequential(empty);
  EXPECT_EQ(both.round_count(), 0u);
  EXPECT_EQ(both.structural_hash(), empty.structural_hash());
}

TEST(ExecutionTraceEdge, MergeParallelEmptyEitherSide) {
  mpc::ExecutionTrace one;
  one.add_round(make_round("a", 2, 10, 100, 64, 1));

  // Empty `other` must leave the trace untouched.
  mpc::ExecutionTrace lhs = one;
  lhs.merge_parallel(mpc::ExecutionTrace{});
  EXPECT_EQ(lhs.round_count(), 1u);
  EXPECT_EQ(lhs.structural_hash(), one.structural_hash());

  // Merging into an empty trace adopts the other side's rounds wholesale
  // (labels included — padding rounds take the incoming label).
  mpc::ExecutionTrace rhs;
  rhs.merge_parallel(one);
  ASSERT_EQ(rhs.round_count(), 1u);
  EXPECT_EQ(rhs.rounds()[0].label, "a");
  EXPECT_EQ(rhs.rounds()[0].machines, 2u);
  EXPECT_EQ(rhs.structural_hash(), one.structural_hash());
}

TEST(ExecutionTraceEdge, MergeParallelUnequalRoundCounts) {
  mpc::ExecutionTrace lhs;
  lhs.add_round(make_round("r1", 2, 10, 100, 64, 0));

  mpc::ExecutionTrace other;
  other.add_round(make_round("r1", 3, 20, 200, 128, 0));
  other.add_round(make_round("r2", 5, 30, 300, 256, 2));

  lhs.merge_parallel(other);
  ASSERT_EQ(lhs.round_count(), 2u);
  // Round 0 zips: counts/work/comm add, memory maxes.
  EXPECT_EQ(lhs.rounds()[0].label, "r1");  // identical labels don't repeat
  EXPECT_EQ(lhs.rounds()[0].machines, 5u);
  EXPECT_EQ(lhs.rounds()[0].total_work, 30u);
  EXPECT_EQ(lhs.rounds()[0].total_comm_bytes, 300u);
  EXPECT_EQ(lhs.rounds()[0].max_machine_memory, 128u);
  EXPECT_EQ(lhs.rounds()[0].max_machine_work, 20u);
  // Round 1 is padding on the left: it takes `other`'s row verbatim.
  EXPECT_EQ(lhs.rounds()[1].label, "r2");
  EXPECT_EQ(lhs.rounds()[1].machines, 5u);
  EXPECT_EQ(lhs.rounds()[1].total_work, 30u);

  // The longer side wins the round count symmetrically: merging the short
  // trace into the long one also yields 2 rounds.
  mpc::ExecutionTrace wide = other;
  mpc::ExecutionTrace narrow;
  narrow.add_round(make_round("r1", 2, 10, 100, 64, 0));
  wide.merge_parallel(narrow);
  EXPECT_EQ(wide.round_count(), 2u);
  EXPECT_EQ(wide.rounds()[0].machines, 5u);
}

TEST(ExecutionTraceEdge, MergeParallelLabelJoinAndViolations) {
  mpc::ExecutionTrace lhs;
  lhs.add_round(make_round("left", 1, 1, 1, 1, 1));
  mpc::ExecutionTrace rhs;
  rhs.add_round(make_round("right", 1, 1, 1, 1, 2));

  lhs.merge_parallel(rhs);
  ASSERT_EQ(lhs.round_count(), 1u);
  EXPECT_EQ(lhs.rounds()[0].label, "left|right");
  // Violations are counts of offending machines, so they add.
  EXPECT_EQ(lhs.rounds()[0].memory_violations, 3u);
  EXPECT_EQ(lhs.memory_violations(), 3u);

  // A label already joined is not repeated (here the last part, then the
  // first); a new one still appends.
  lhs.merge_parallel(rhs);
  EXPECT_EQ(lhs.rounds()[0].label, "left|right");
  mpc::ExecutionTrace again;
  again.add_round(make_round("left", 1, 1, 1, 1, 0));
  lhs.merge_parallel(again);
  EXPECT_EQ(lhs.rounds()[0].label, "left|right");
  mpc::ExecutionTrace next;
  next.add_round(make_round("next", 1, 1, 1, 1, 0));
  lhs.merge_parallel(next);
  EXPECT_EQ(lhs.rounds()[0].label, "left|right|next");
  EXPECT_EQ(lhs.rounds()[0].machines, 5u);
}

TEST(ExecutionTraceEdge, StructuralHashIgnoresWallClock) {
  mpc::ExecutionTrace a;
  a.add_round(make_round("r", 2, 10, 100, 64, 0));
  mpc::ExecutionTrace b;
  mpc::RoundReport r = make_round("r", 2, 10, 100, 64, 0);
  r.wall_seconds = 99.0;
  r.driver_seconds = 42.0;
  b.add_round(r);
  EXPECT_EQ(a.structural_hash(), b.structural_hash());

  // ...but any model-level field does change the hash.
  mpc::ExecutionTrace c;
  mpc::RoundReport rc = make_round("r", 2, 10, 100, 64, 0);
  rc.total_work += 1;
  c.add_round(rc);
  EXPECT_NE(a.structural_hash(), c.structural_hash());
}

// ---------------------------------------------------------------------------
// Recorder / Span semantics
// ---------------------------------------------------------------------------

TEST(Recorder, NullAndSinklessRecordersAreInert) {
  // Null recorder: the span never arms.
  {
    obs::Span span(nullptr, "never", "test");
    EXPECT_FALSE(static_cast<bool>(span));
    span.arg("x", 1.0);  // must be a safe no-op
    span.finish();
  }
  // Sink-less recorder: enabled() is false, nothing is dispatched.
  obs::Recorder recorder;
  EXPECT_FALSE(recorder.enabled());
  {
    obs::Span span(&recorder, "never", "test");
    EXPECT_FALSE(static_cast<bool>(span));
  }
  recorder.counter("c", "test", 1.0);
  recorder.instant("i", "test");
  recorder.flush();
  EXPECT_EQ(recorder.event_count(), 0u);
}

TEST(Recorder, SpanArgsChainAndFinishIsIdempotent) {
  obs::Recorder recorder;
  auto sink = std::make_shared<obs::AggregateSink>();
  recorder.add_sink(sink);
  ASSERT_TRUE(recorder.enabled());

  obs::Span span(&recorder, "chained", "test");
  ASSERT_TRUE(static_cast<bool>(span));
  span.arg("a", 1.0).arg("b", 2.5);
  span.finish();
  EXPECT_FALSE(static_cast<bool>(span));
  span.finish();  // second finish must not re-emit
  recorder.flush();

  EXPECT_EQ(recorder.event_count(), 1u);
  const auto it = sink->spans().find({"test", "chained"});
  ASSERT_NE(it, sink->spans().end());
  EXPECT_EQ(it->second.count, 1u);
  ASSERT_EQ(it->second.last_args.size(), 2u);
  EXPECT_EQ(it->second.last_args[0].key, "a");
  EXPECT_DOUBLE_EQ(it->second.last_args[1].value, 2.5);
}

TEST(Recorder, SpanMoveTransfersOwnership) {
  obs::Recorder recorder;
  auto sink = std::make_shared<obs::AggregateSink>();
  recorder.add_sink(sink);

  obs::Span a(&recorder, "moved", "test");
  obs::Span b(std::move(a));
  EXPECT_FALSE(static_cast<bool>(a));  // NOLINT(bugprone-use-after-move)
  EXPECT_TRUE(static_cast<bool>(b));
  b.finish();
  a.finish();  // moved-from span is inert
  recorder.flush();
  EXPECT_EQ(recorder.event_count(), 1u);
}

// ---------------------------------------------------------------------------
// JSONL sink: round-trip parse
// ---------------------------------------------------------------------------

// Minimal extraction helpers for the flat one-object-per-line format the
// sink emits (no nesting beyond the "args" object, which is always last).
std::string json_field(const std::string& line, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const auto pos = line.find(needle);
  if (pos == std::string::npos) return {};
  auto start = pos + needle.size();
  if (line[start] == '"') {
    const auto end = line.find('"', start + 1);
    return line.substr(start + 1, end - start - 1);
  }
  auto end = start;
  while (end < line.size() && line[end] != ',' && line[end] != '}') ++end;
  return line.substr(start, end - start);
}

TEST(JsonlSink, RoundTripParse) {
  obs::Recorder recorder;
  auto sink = std::make_shared<obs::JsonlSink>();
  recorder.add_sink(sink);

  {
    obs::Span span(&recorder, "round:demo", "round", 3);
    span.arg("machines", 7.0).arg("ratio", 0.5);
  }
  recorder.counter("mpc.comm_bytes", "mpc", 4096.0);
  recorder.instant("note \"quoted\"", "misc");
  recorder.flush();

  EXPECT_EQ(sink->event_count(), 3u);
  std::istringstream lines(sink->text());
  std::string line;

  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_EQ(json_field(line, "kind"), "span");
  EXPECT_EQ(json_field(line, "name"), "round:demo");
  EXPECT_EQ(json_field(line, "cat"), "round");
  EXPECT_EQ(json_field(line, "track"), "3");
  EXPECT_EQ(json_field(line, "machines"), "7");
  EXPECT_EQ(json_field(line, "ratio"), "0.5");
  EXPECT_FALSE(json_field(line, "dur_us").empty());

  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_EQ(json_field(line, "kind"), "counter");
  EXPECT_EQ(json_field(line, "name"), "mpc.comm_bytes");
  EXPECT_EQ(json_field(line, "value"), "4096");
  // Counters carry no duration field.
  EXPECT_EQ(line.find("dur_us"), std::string::npos);

  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_EQ(json_field(line, "kind"), "instant");
  // The quote inside the name must be escaped on the wire...
  EXPECT_NE(line.find("note \\\"quoted\\\""), std::string::npos);
  // ...and every line must close the object it opened.
  EXPECT_EQ(line.front(), '{');
  EXPECT_EQ(line.back(), '}');

  EXPECT_FALSE(std::getline(lines, line));  // exactly 3 lines
}

// ---------------------------------------------------------------------------
// Chrome trace sink: schema fields
// ---------------------------------------------------------------------------

TEST(ChromeTraceSink, SchemaFields) {
  obs::Recorder recorder;
  auto sink = std::make_shared<obs::ChromeTraceSink>();
  recorder.add_sink(sink);

  {
    obs::Span span(&recorder, "stage:emit", "stage", 2);
    span.arg("glue_seconds", 0.0);
  }
  recorder.counter("pool.peak_queue_depth", "pool", 5.0);
  recorder.instant("retired", "batch");
  recorder.flush();

  EXPECT_EQ(sink->event_count(), 3u);
  const std::string json = sink->to_string();

  // Top-level object shape.
  EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);

  // Span -> complete event "X" on its track, with dur.
  EXPECT_NE(json.find("\"name\":\"stage:emit\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"pid\":0,\"tid\":2"), std::string::npos);
  EXPECT_NE(json.find("\"dur\":"), std::string::npos);

  // Counter -> "C"; instant -> thread-scoped "i".
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"s\":\"t\""), std::string::npos);

  // Every event row carries name/cat/ts.
  EXPECT_NE(json.find("\"cat\":\"stage\""), std::string::npos);
  EXPECT_NE(json.find("\"ts\":"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Aggregate sink arithmetic
// ---------------------------------------------------------------------------

TEST(AggregateSink, RollupArithmetic) {
  obs::AggregateSink sink;

  obs::TraceEvent span;
  span.kind = obs::EventKind::kSpan;
  span.name = "s";
  span.category = "test";
  span.dur_us = 10;
  sink.record(span);
  span.dur_us = 30;
  span.args = {obs::Arg{"k", 2.0}};
  sink.record(span);

  obs::TraceEvent counter;
  counter.kind = obs::EventKind::kCounter;
  counter.name = "c";
  counter.args = {obs::Arg{"value", 3.0}};
  sink.record(counter);
  counter.args = {obs::Arg{"value", 5.0}};
  sink.record(counter);

  const auto& s = sink.spans().at({"test", "s"});
  EXPECT_EQ(s.count, 2u);
  EXPECT_EQ(s.total_dur_us, 40u);
  EXPECT_EQ(s.min_dur_us, 10u);
  EXPECT_EQ(s.max_dur_us, 30u);
  ASSERT_EQ(s.last_args.size(), 1u);
  EXPECT_DOUBLE_EQ(s.last_args[0].value, 2.0);

  const auto& c = sink.counters().at("c");
  EXPECT_EQ(c.count, 2u);
  EXPECT_DOUBLE_EQ(c.last, 5.0);
  EXPECT_DOUBLE_EQ(c.sum, 8.0);

  const std::string json = sink.to_json();
  EXPECT_NE(json.find("\"name\":\"s\""), std::string::npos);
  EXPECT_NE(json.find("\"total_us\":40"), std::string::npos);
  EXPECT_NE(json.find("\"sum\":8"), std::string::npos);
}

TEST(AggregateSink, SameNameInTwoCategoriesStaysApart) {
  // A plan stage span and the round span it runs in carry the same label;
  // summing them would double the time and keep whichever category came
  // last.
  obs::AggregateSink sink;
  obs::TraceEvent span;
  span.kind = obs::EventKind::kSpan;
  span.name = "edit:candidates";
  span.category = "round";
  span.dur_us = 7;
  sink.record(span);
  span.category = "stage";
  span.dur_us = 11;
  sink.record(span);

  ASSERT_EQ(sink.spans().size(), 2u);
  const auto& round = sink.spans().at({"round", "edit:candidates"});
  EXPECT_EQ(round.count, 1u);
  EXPECT_EQ(round.total_dur_us, 7u);
  const auto& stage = sink.spans().at({"stage", "edit:candidates"});
  EXPECT_EQ(stage.count, 1u);
  EXPECT_EQ(stage.total_dur_us, 11u);

  const std::string json = sink.to_json();
  EXPECT_NE(json.find("{\"name\":\"edit:candidates\",\"cat\":\"round\","
                      "\"count\":1,"),
            std::string::npos);
  EXPECT_NE(json.find("{\"name\":\"edit:candidates\",\"cat\":\"stage\","
                      "\"count\":1,"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Thread safety under parallel_for
// ---------------------------------------------------------------------------

TEST(Recorder, ConcurrentEmissionUnderParallelFor) {
  obs::Recorder recorder;
  auto sink = std::make_shared<obs::AggregateSink>();
  recorder.add_sink(sink);

  ThreadPool pool(4);
  constexpr std::size_t kIters = 512;
  pool.parallel_for(kIters, [&recorder](std::size_t i) {
    obs::Span span(&recorder, "worker", "test", i % 7);
    span.arg("i", static_cast<double>(i));
    span.finish();
    recorder.counter("hits", "test", 1.0);
  });
  recorder.flush();

  // Every emission must have been dispatched exactly once, with no lost
  // updates (the dispatch lock serialises the sink).
  EXPECT_EQ(recorder.event_count(), 2 * kIters);
  EXPECT_EQ(sink->spans().at({"test", "worker"}).count, kIters);
  EXPECT_EQ(sink->counters().at("hits").count, kIters);
  EXPECT_DOUBLE_EQ(sink->counters().at("hits").sum, static_cast<double>(kIters));
}

// ---------------------------------------------------------------------------
// Metering neutrality: recorder attached vs detached
// ---------------------------------------------------------------------------

TEST(MeteringNeutrality, UlamSolver) {
  const auto s = core::random_permutation(256, 7);
  const auto t = core::plant_edits(s, 16, 8, true).text;
  ulam_mpc::UlamMpcParams params;
  params.workers = 2;
  params.seed = 7;

  const auto detached = ulam_mpc::ulam_distance_mpc(s, t, params);

  obs::Recorder recorder;
  auto sink = std::make_shared<obs::AggregateSink>();
  recorder.add_sink(sink);
  params.recorder = &recorder;
  const auto attached = ulam_mpc::ulam_distance_mpc(s, t, params);
  recorder.flush();

  EXPECT_EQ(attached.distance, detached.distance);
  EXPECT_EQ(attached.trace.structural_hash(), detached.trace.structural_hash());
  // The traced run actually emitted: solver span + round spans + counters.
  EXPECT_GT(recorder.event_count(), 0u);
  EXPECT_NE(sink->spans().find({"solver", "ulam:solve"}), sink->spans().end());
}

TEST(MeteringNeutrality, EditSolver) {
  const auto s = core::random_string(192, 8, 19);
  const auto t = core::plant_edits(s, 16, 20, false).text;
  edit_mpc::EditMpcParams params;
  params.workers = 2;
  params.seed = 19;

  const auto detached = edit_mpc::edit_distance_mpc(s, t, params);

  obs::Recorder recorder;
  auto sink = std::make_shared<obs::AggregateSink>();
  recorder.add_sink(sink);
  params.recorder = &recorder;
  const auto attached = edit_mpc::edit_distance_mpc(s, t, params);
  recorder.flush();

  EXPECT_EQ(attached.distance, detached.distance);
  EXPECT_EQ(attached.trace.structural_hash(), detached.trace.structural_hash());
  EXPECT_NE(sink->spans().find({"solver", "edit:solve"}), sink->spans().end());
  EXPECT_NE(sink->spans().find({"solver", "edit:pass"}), sink->spans().end());
  EXPECT_NE(sink->spans().find({"solver", "edit:rung"}), sink->spans().end());
}

core::BatchRequest make_batch_request(core::BatchMode mode) {
  core::BatchRequest request;
  request.algorithm = core::BatchAlgorithm::kEdit;
  request.mode = mode;
  // The assertions below require the ladder to actually run (rung spans);
  // keep MPCSD_ROUTER from retiring the queries.
  request.router = core::RouterPolicy::kOff;
  request.edit.x = 0.25;
  request.edit.epsilon = 1.0;
  request.edit.seed = 5;
  for (std::uint64_t q = 0; q < 3; ++q) {
    const auto s = core::random_string(160, 8, 31 + q);
    const auto t = core::plant_edits(s, 6 + 2 * static_cast<std::int64_t>(q),
                                     41 + q, false)
                       .text;
    request.queries.push_back(core::BatchQuery{s, t});
  }
  return request;
}

TEST(MeteringNeutrality, DistanceBatchBothModes) {
  for (const auto mode :
       {core::BatchMode::kParallelGuess, core::BatchMode::kThroughput}) {
    SCOPED_TRACE(mode == core::BatchMode::kParallelGuess ? "parallel_guess"
                                                         : "throughput");
    auto request = make_batch_request(mode);
    const auto detached = core::distance_batch(request);

    obs::Recorder recorder;
    auto sink = std::make_shared<obs::AggregateSink>();
    recorder.add_sink(sink);
    request.recorder = &recorder;
    const auto attached = core::distance_batch(request);
    recorder.flush();

    ASSERT_EQ(attached.queries.size(), detached.queries.size());
    EXPECT_EQ(attached.trace.structural_hash(),
              detached.trace.structural_hash());
    for (std::size_t q = 0; q < attached.queries.size(); ++q) {
      EXPECT_EQ(attached.queries[q].distance, detached.queries[q].distance);
      EXPECT_EQ(attached.queries[q].trace.structural_hash(),
                detached.queries[q].trace.structural_hash());
    }
    // Per-rung attribution spans landed on the query tracks.
    EXPECT_NE(sink->spans().find({"solver", "edit:pass"}), sink->spans().end());
    EXPECT_NE(sink->spans().find({"solver", "edit:rung"}), sink->spans().end());
  }
}

TEST(MeteringNeutrality, UlamBatchEmitsQuerySpans) {
  core::BatchRequest request;
  request.algorithm = core::BatchAlgorithm::kUlam;
  request.ulam.seed = 9;
  for (std::uint64_t q = 0; q < 2; ++q) {
    const auto s = core::random_permutation(128, 51 + q);
    const auto t = core::plant_edits(s, 8, 61 + q, true).text;
    request.queries.push_back(core::BatchQuery{s, t});
  }
  const auto detached = core::distance_batch(request);

  obs::Recorder recorder;
  auto sink = std::make_shared<obs::AggregateSink>();
  recorder.add_sink(sink);
  request.recorder = &recorder;
  const auto attached = core::distance_batch(request);
  recorder.flush();

  EXPECT_EQ(attached.trace.structural_hash(), detached.trace.structural_hash());
  const auto it = sink->spans().find({"batch", "batch:ulam:query"});
  ASSERT_NE(it, sink->spans().end());
  EXPECT_EQ(it->second.count, 2u);
  EXPECT_NE(sink->spans().find({"batch", "batch:ulam:pass"}),
            sink->spans().end());
}

}  // namespace
