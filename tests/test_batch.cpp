// Batched multi-query execution: round-count parity with single queries,
// strict per-query memory-cap enforcement, per-query trace attribution,
// and distance guarantees.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/api.hpp"
#include "obs/recorder.hpp"

namespace {

using namespace mpcsd;

core::BatchRequest ulam_request(std::size_t batch, std::int64_t n,
                                std::uint64_t seed) {
  core::BatchRequest request;
  request.algorithm = core::BatchAlgorithm::kUlam;
  request.ulam.x = 1.0 / 3;
  request.ulam.epsilon = 0.5;
  request.ulam.seed = seed;
  request.ulam.workers = 1;
  for (std::size_t q = 0; q < batch; ++q) {
    core::BatchQuery query;
    query.s = core::random_permutation(n, seed + 10 * q);
    query.t = core::plant_edits(query.s, n / 16, seed + 10 * q + 1, true).text;
    request.queries.push_back(std::move(query));
  }
  return request;
}

core::BatchRequest edit_request(std::size_t batch, std::int64_t n,
                                std::uint64_t seed) {
  core::BatchRequest request;
  request.algorithm = core::BatchAlgorithm::kEdit;
  request.edit.x = 0.25;
  request.edit.epsilon = 1.0;
  request.edit.seed = seed;
  request.edit.workers = 1;
  for (std::size_t q = 0; q < batch; ++q) {
    core::BatchQuery query;
    query.s = core::random_string(n, 8, seed + 10 * q);
    query.t = core::plant_edits(query.s, n / 16, seed + 10 * q + 1, false).text;
    request.queries.push_back(std::move(query));
  }
  return request;
}

TEST(Batch, UlamBatchUsesSameRoundsAsSingleQuery) {
  // The headline batching win: B queries share the two simulated rounds.
  const auto request = ulam_request(1, 256, 7);
  const auto single = core::distance_batch(request);
  const auto batch = core::distance_batch(ulam_request(16, 256, 7));
  EXPECT_EQ(single.trace.round_count(), 2u);
  EXPECT_EQ(batch.trace.round_count(), 2u);
  EXPECT_EQ(batch.queries.size(), 16u);

  // One pipeline: the single-query API is the one-query batch run, so it
  // answers alike and runs the same rounds.
  const auto direct = ulam_mpc::ulam_distance_mpc(
      request.queries[0].s, request.queries[0].t, request.ulam);
  EXPECT_EQ(direct.distance, single.queries[0].distance);
  EXPECT_EQ(direct.trace.structural_hash(), single.trace.structural_hash());
}

TEST(Batch, UlamInModelPositionMapHonoured) {
  // The in-model join builds the same position map as driver-side routing,
  // so the answer is unchanged; its two rounds run before the plan stages.
  auto request = ulam_request(1, 256, 11);
  const auto driver_side = core::distance_batch(request);
  request.ulam.in_model_position_map = true;
  const auto in_model = core::distance_batch(request);
  EXPECT_EQ(in_model.queries[0].distance, driver_side.queries[0].distance);
  std::vector<std::string> labels;
  for (const auto& r : in_model.trace.rounds()) labels.push_back(r.label);
  EXPECT_EQ(labels, (std::vector<std::string>{"join:partition", "join:match",
                                              "batch:ulam:candidates",
                                              "batch:ulam:combine"}));
  EXPECT_EQ(in_model.passes, 1u);
}

TEST(Batch, UlamDistancesWithinGuarantee) {
  const auto request = ulam_request(8, 256, 21);
  const auto result = core::distance_batch(request);
  for (std::size_t q = 0; q < request.queries.size(); ++q) {
    const auto exact = seq::ulam_distance(SymView(request.queries[q].s),
                                          SymView(request.queries[q].t));
    // Realizable-transformation lower bound, (1+eps) whp upper bound (the
    // +2 absorbs grid rounding at toy sizes).
    EXPECT_GE(result.queries[q].distance, exact) << "query " << q;
    EXPECT_LE(result.queries[q].distance,
              static_cast<std::int64_t>(std::ceil(1.5 * double(exact))) + 2)
        << "query " << q;
  }
}

TEST(Batch, UlamMixedSizesStrictPerQueryCaps) {
  // Queries of different n carry different Õ(n^{1-x}) caps; strict mode
  // proves each machine respects its own query's cap.
  core::BatchRequest request;
  request.algorithm = core::BatchAlgorithm::kUlam;
  request.ulam.x = 1.0 / 3;
  request.ulam.epsilon = 0.5;
  request.ulam.seed = 3;
  request.ulam.workers = 1;
  request.ulam.strict_memory = true;
  for (const std::int64_t n : {128, 384, 256, 512}) {
    core::BatchQuery query;
    query.s = core::random_permutation(n, 100 + n);
    query.t = core::plant_edits(query.s, n / 20, 101 + n, true).text;
    request.queries.push_back(std::move(query));
  }
  const auto result = core::distance_batch(request);  // must not throw
  EXPECT_EQ(result.trace.round_count(), 2u);
  for (const auto& qr : result.queries) {
    EXPECT_EQ(qr.trace.memory_violations(), 0u);
    EXPECT_LE(qr.trace.max_machine_memory(), qr.memory_cap_bytes);
  }
  // Caps really differ across the batch.
  EXPECT_LT(result.queries[0].memory_cap_bytes,
            result.queries[3].memory_cap_bytes);
}

TEST(Batch, UlamPerQueryAttributionSumsToSharedTrace) {
  const auto result = core::distance_batch(ulam_request(6, 256, 11));
  ASSERT_EQ(result.trace.round_count(), 2u);
  for (std::size_t r = 0; r < 2; ++r) {
    std::uint64_t work = 0;
    std::uint64_t comm = 0;
    std::size_t machines = 0;
    for (const auto& qr : result.queries) {
      ASSERT_EQ(qr.trace.round_count(), 2u);
      work += qr.trace.rounds()[r].total_work;
      comm += qr.trace.rounds()[r].total_comm_bytes;
      machines += qr.trace.rounds()[r].machines;
    }
    EXPECT_EQ(work, result.trace.rounds()[r].total_work);
    EXPECT_EQ(comm, result.trace.rounds()[r].total_comm_bytes);
    EXPECT_EQ(machines, result.trace.rounds()[r].machines);
  }
}

TEST(Batch, UlamDegenerateQueries) {
  core::BatchRequest request;
  request.algorithm = core::BatchAlgorithm::kUlam;
  request.ulam.workers = 1;
  request.queries.push_back(core::BatchQuery{});  // both empty
  core::BatchQuery half;
  half.t = core::random_permutation(32, 5);
  request.queries.push_back(std::move(half));  // s empty
  core::BatchQuery live;
  live.s = core::random_permutation(64, 6);
  live.t = core::plant_edits(live.s, 4, 7, true).text;
  request.queries.push_back(std::move(live));
  const auto result = core::distance_batch(request);
  EXPECT_EQ(result.queries[0].distance, 0);
  EXPECT_EQ(result.queries[1].distance, 32);
  EXPECT_GT(result.queries[2].distance, 0);

  // With no live query the pipeline runs no rounds at all.
  request.queries.pop_back();
  const auto degenerate = core::distance_batch(request);
  EXPECT_EQ(degenerate.queries[0].distance, 0);
  EXPECT_EQ(degenerate.queries[1].distance, 32);
  EXPECT_EQ(degenerate.trace.round_count(), 0u);
  EXPECT_EQ(degenerate.passes, 0u);
}

TEST(Batch, EditBatchOnePassAtMostFourRoundsAndGuarantee) {
  const auto request = edit_request(6, 192, 19);
  const auto result = core::distance_batch(request);
  // Every (query, guess) rung runs in one pass: the small rungs share one
  // round pair and the large rungs (guess 192 > 192^{0.95}) run their four
  // Lemma 8 rounds beside it, as a single edit_distance_mpc kAll run does.
  EXPECT_EQ(result.passes, 1u);
  EXPECT_EQ(result.trace.round_count(), 4u);
  for (std::size_t q = 0; q < request.queries.size(); ++q) {
    const auto exact = seq::edit_distance(SymView(request.queries[q].s),
                                          SymView(request.queries[q].t));
    EXPECT_GE(result.queries[q].distance, exact) << "query " << q;
    // kApprox3 unit: 3+eps with eps=1 -> factor 4 (+2 rounding slack).
    EXPECT_LE(result.queries[q].distance, 4 * exact + 2) << "query " << q;
    EXPECT_GT(result.queries[q].accepted_guess, 0) << "query " << q;
    EXPECT_EQ(result.queries[q].trace.round_count(), 4u);
  }
}

TEST(Batch, EditStrictPerQueryCaps) {
  auto request = edit_request(4, 160, 23);
  request.edit.strict_memory = true;
  const auto result = core::distance_batch(request);  // must not throw
  for (const auto& qr : result.queries) {
    EXPECT_EQ(qr.trace.memory_violations(), 0u);
    EXPECT_LE(qr.trace.max_machine_memory(), qr.memory_cap_bytes);
  }
}

TEST(Batch, EditIdenticalStringsShortCircuit) {
  core::BatchRequest request;
  request.algorithm = core::BatchAlgorithm::kEdit;
  request.edit.workers = 1;
  core::BatchQuery query;
  query.s = core::random_string(64, 8, 3);
  query.t = query.s;
  request.queries.push_back(std::move(query));
  const auto result = core::distance_batch(request);
  EXPECT_EQ(result.queries[0].distance, 0);
}

TEST(Batch, EmptyRequest) {
  const auto result = core::distance_batch(core::BatchRequest{});
  EXPECT_TRUE(result.queries.empty());
  EXPECT_EQ(result.trace.round_count(), 0u);
}

TEST(Batch, SolverParamRecordersAreRejected) {
  // A batch records through BatchRequest::recorder only; a recorder set on
  // the solver params would be silently ignored, so it is refused.
  obs::Recorder recorder;
  auto ulam = ulam_request(2, 64, 3);
  ulam.ulam.recorder = &recorder;
  EXPECT_THROW((void)core::distance_batch(ulam), std::invalid_argument);
  auto edit = edit_request(2, 64, 3);
  edit.edit.recorder = &recorder;
  EXPECT_THROW((void)core::distance_batch(edit), std::invalid_argument);
  edit.edit.recorder = nullptr;
  edit.recorder = &recorder;
  EXPECT_EQ(core::distance_batch(edit).queries.size(), 2u);
}

std::uint64_t trace_work(const mpc::ExecutionTrace& trace) {
  std::uint64_t work = 0;
  for (const auto& round : trace.rounds()) work += round.total_work;
  return work;
}

TEST(BatchThroughput, GuaranteeAndRoundShape) {
  auto request = edit_request(6, 192, 19);
  request.mode = core::BatchMode::kThroughput;
  request.router = core::RouterPolicy::kOff;  // asserts ladder shape
  const auto result = core::distance_batch(request);
  // Escalation runs one round-pair per pass; every live query retires on
  // the self-certifying accept, so rounds stay even and passes match.
  EXPECT_EQ(result.trace.round_count(), 2 * result.passes);
  EXPECT_GE(result.passes, 1u);
  for (std::size_t q = 0; q < request.queries.size(); ++q) {
    const auto exact = seq::edit_distance(SymView(request.queries[q].s),
                                          SymView(request.queries[q].t));
    EXPECT_GE(result.queries[q].distance, exact) << "query " << q;
    EXPECT_LE(result.queries[q].distance, 4 * exact + 2) << "query " << q;
    EXPECT_GT(result.queries[q].accepted_guess, 0) << "query " << q;
    EXPECT_GE(result.queries[q].rungs_run, 1u) << "query " << q;
    // The attributed trace carries one round-pair per rung the query ran.
    EXPECT_EQ(result.queries[q].trace.round_count(),
              2 * result.queries[q].rungs_run)
        << "query " << q;
  }
}

TEST(BatchThroughput, SameAnswersAsParallelGuessUpToAccept) {
  // Escalation executes a prefix of the same cells with the same seeds, so
  // the accepted guess and the distance at acceptance match the parallel
  // mode whenever the parallel mode's best comes from the accept prefix.
  auto parallel = edit_request(5, 160, 29);
  auto escalated = parallel;
  escalated.mode = core::BatchMode::kThroughput;
  escalated.router = core::RouterPolicy::kOff;  // asserts ladder shape
  const auto pr = core::distance_batch(parallel);
  const auto er = core::distance_batch(escalated);
  for (std::size_t q = 0; q < pr.queries.size(); ++q) {
    EXPECT_EQ(er.queries[q].accepted_guess, pr.queries[q].accepted_guess)
        << "query " << q;
    // The escalated answer comes from a subset of the parallel rungs.
    EXPECT_GE(er.queries[q].distance, pr.queries[q].distance) << "query " << q;
    EXPECT_LE(er.queries[q].rungs_run, pr.queries[q].rungs_run) << "query " << q;
  }
}

TEST(BatchThroughput, StrictlyLessWorkThanParallelGuess) {
  // The point of escalation: planted distances are small, so queries retire
  // rungs before the expensive top of the ladder ever runs.
  auto parallel = edit_request(6, 192, 31);
  auto escalated = parallel;
  escalated.mode = core::BatchMode::kThroughput;
  const auto pr = core::distance_batch(parallel);
  const auto er = core::distance_batch(escalated);
  EXPECT_LT(trace_work(er.trace), trace_work(pr.trace));
  for (std::size_t q = 0; q < pr.queries.size(); ++q) {
    EXPECT_LT(er.queries[q].rungs_run, pr.queries[q].rungs_run)
        << "query " << q;
  }
}

TEST(BatchThroughput, AttributionSumsToSharedTrace) {
  auto request = edit_request(6, 192, 37);
  request.mode = core::BatchMode::kThroughput;
  const auto result = core::distance_batch(request);
  // Every machine of every pass is owned by exactly one query, so the
  // per-query attributed totals add up to the shared physical trace.
  std::uint64_t work = 0;
  std::uint64_t comm = 0;
  for (const auto& qr : result.queries) {
    work += trace_work(qr.trace);
    for (const auto& round : qr.trace.rounds()) comm += round.total_comm_bytes;
  }
  std::uint64_t shared_comm = 0;
  for (const auto& round : result.trace.rounds()) {
    shared_comm += round.total_comm_bytes;
  }
  EXPECT_EQ(work, trace_work(result.trace));
  EXPECT_EQ(comm, shared_comm);
}

TEST(BatchThroughput, StrictPerQueryCaps) {
  auto request = edit_request(4, 160, 23);
  request.mode = core::BatchMode::kThroughput;
  request.edit.strict_memory = true;
  const auto result = core::distance_batch(request);  // must not throw
  for (const auto& qr : result.queries) {
    EXPECT_EQ(qr.trace.memory_violations(), 0u);
    EXPECT_LE(qr.trace.max_machine_memory(), qr.memory_cap_bytes);
  }
}

TEST(BatchThroughput, DegenerateQueriesRunZeroPasses) {
  core::BatchRequest request;
  request.algorithm = core::BatchAlgorithm::kEdit;
  request.mode = core::BatchMode::kThroughput;
  request.edit.workers = 1;
  request.queries.push_back(core::BatchQuery{});  // both empty
  core::BatchQuery same;
  same.s = core::random_string(64, 8, 3);
  same.t = same.s;
  request.queries.push_back(std::move(same));
  const auto result = core::distance_batch(request);
  EXPECT_EQ(result.queries[0].distance, 0);
  EXPECT_EQ(result.queries[1].distance, 0);
  EXPECT_EQ(result.passes, 0u);
  EXPECT_EQ(result.trace.round_count(), 0u);
}

TEST(BatchRouter, AutoAnswersAtLeastExactAndAtMostOff) {
  // Routed retirement is exact and rung-skipping only removes rungs that
  // could never certify, so `auto` answers stay within the same envelope:
  // >= the exact distance, <= the router-off answer.
  auto off = edit_request(6, 192, 43);
  off.mode = core::BatchMode::kThroughput;
  off.router = core::RouterPolicy::kOff;
  auto routed = off;
  routed.router = core::RouterPolicy::kAuto;
  const auto ro = core::distance_batch(off);
  const auto rr = core::distance_batch(routed);
  for (std::size_t q = 0; q < off.queries.size(); ++q) {
    const auto exact = seq::edit_distance(SymView(off.queries[q].s),
                                          SymView(off.queries[q].t));
    EXPECT_GE(rr.queries[q].distance, exact) << "query " << q;
    EXPECT_LE(rr.queries[q].distance, ro.queries[q].distance) << "query " << q;
    EXPECT_LE(rr.queries[q].rungs_run, ro.queries[q].rungs_run) << "query " << q;
  }
}

TEST(BatchRouter, AlwaysSeqRetiresEverythingExactly) {
  auto request = edit_request(5, 160, 47);
  request.mode = core::BatchMode::kThroughput;
  request.router = core::RouterPolicy::kAlwaysSeq;
  const auto result = core::distance_batch(request);
  EXPECT_EQ(result.passes, 0u);
  EXPECT_EQ(result.trace.round_count(), 0u);
  for (std::size_t q = 0; q < request.queries.size(); ++q) {
    EXPECT_EQ(result.queries[q].distance,
              seq::edit_distance(SymView(request.queries[q].s),
                                 SymView(request.queries[q].t)))
        << "query " << q;
    EXPECT_EQ(result.queries[q].accepted_guess, 0) << "query " << q;
    EXPECT_EQ(result.queries[q].rungs_run, 0u) << "query " << q;
    EXPECT_EQ(result.queries[q].trace.round_count(), 0u) << "query " << q;
  }
}

TEST(BatchRouter, RetiredQueriesOwnNoMachines) {
  // A mixed batch: near-duplicates retire, a far pair climbs the ladder.
  // Attribution must still sum exactly over the queries that ran.
  auto request = edit_request(4, 192, 53);
  request.mode = core::BatchMode::kThroughput;
  request.router = core::RouterPolicy::kAuto;
  // Make queries 0 and 2 near-duplicates the prefilter trims to nothing.
  request.queries[0].t = request.queries[0].s;
  request.queries[0].t.push_back(Symbol{1});
  request.queries[2].t = request.queries[2].s;
  const auto result = core::distance_batch(request);
  EXPECT_EQ(result.queries[0].distance, 1);
  EXPECT_EQ(result.queries[0].trace.round_count(), 0u);
  EXPECT_EQ(result.queries[2].distance, 0);
  std::uint64_t work = 0;
  for (const auto& qr : result.queries) work += trace_work(qr.trace);
  EXPECT_EQ(work, trace_work(result.trace));
}

TEST(BatchRouter, OffMatchesDefaultWhenEnvUnset) {
  if (std::getenv("MPCSD_ROUTER") != nullptr) {
    GTEST_SKIP() << "MPCSD_ROUTER is set; default is not off here";
  }
  auto off = edit_request(4, 160, 59);
  off.mode = core::BatchMode::kThroughput;
  off.router = core::RouterPolicy::kOff;
  auto def = off;
  def.router = core::RouterPolicy::kDefault;
  const auto ro = core::distance_batch(off);
  const auto rd = core::distance_batch(def);
  ASSERT_EQ(ro.queries.size(), rd.queries.size());
  for (std::size_t q = 0; q < ro.queries.size(); ++q) {
    EXPECT_EQ(ro.queries[q].distance, rd.queries[q].distance);
    EXPECT_EQ(ro.queries[q].accepted_guess, rd.queries[q].accepted_guess);
    EXPECT_EQ(ro.queries[q].rungs_run, rd.queries[q].rungs_run);
  }
  EXPECT_EQ(trace_work(ro.trace), trace_work(rd.trace));
  EXPECT_EQ(ro.trace.round_count(), rd.trace.round_count());
}

TEST(BatchThroughput, UlamIgnoresMode) {
  auto parallel = ulam_request(4, 256, 7);
  auto escalated = parallel;
  escalated.mode = core::BatchMode::kThroughput;
  const auto pr = core::distance_batch(parallel);
  const auto er = core::distance_batch(escalated);
  ASSERT_EQ(pr.queries.size(), er.queries.size());
  for (std::size_t q = 0; q < pr.queries.size(); ++q) {
    EXPECT_EQ(pr.queries[q].distance, er.queries[q].distance);
  }
  EXPECT_EQ(trace_work(pr.trace), trace_work(er.trace));
  EXPECT_EQ(pr.trace.round_count(), er.trace.round_count());
}

}  // namespace
