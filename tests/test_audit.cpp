// The MPC model-conformance auditor: conformant pipelines audit clean with
// byte-identical metering on both backends, and both detectors (schedule
// replay, comm accounting) throw AuditError naming the offending round and
// machine.  Bodies that write through their inbox view are caught before
// any run by mpcsd_verify's conf-const-cast rule (fixtures under
// tools/mpcsd_verify/fixtures/bad/src/mpc/); a body that would keep its
// view across rounds in a capture does not compile (mpc/body.hpp).
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <memory>

#include "core/batch.hpp"
#include "core/workload.hpp"
#include "edit_mpc/hss_baseline.hpp"
#include "edit_mpc/solver.hpp"
#include "mpc/audit.hpp"
#include "mpc/cluster.hpp"
#include "ulam_mpc/solver.hpp"

namespace mpcsd::mpc {
namespace {

Bytes payload_of(std::uint32_t v) {
  ByteWriter w;
  w.put(v);
  return std::move(w).take();
}

ClusterConfig audited_config(std::size_t workers = 1) {
  ClusterConfig config;
  config.workers = workers;
  // The planted schedule dependence is shared host state, which only
  // exists on the thread backend.  Pin it so an MPCSD_BACKEND=process
  // environment doesn't run the leaky bodies in separate address spaces.
  config.backend = BackendKind::kThread;
  config.audit.enabled = true;
  return config;
}

/// A conformant round body: reads the input, emits a derived value.
void echo_body(MachineContext& ctx) {
  auto r = ctx.reader();
  const auto v = r.get<std::uint32_t>();
  ctx.charge_work(1);
  ByteWriter w;
  w.put(v * 3 + 1);
  ctx.emit(0, std::move(w).take());
}

TEST(Audit, ConformantRoundsAuditCleanAndMeteringNeutral) {
  auto run = [](bool audited) {
    ClusterConfig config;
    config.workers = 2;
    config.seed = 9;
    config.audit.enabled = audited;
    Cluster cluster(config);
    std::vector<Bytes> inputs;
    for (std::uint32_t i = 0; i < 16; ++i) inputs.push_back(payload_of(i));
    const Mail mail = cluster.run_round("echo", inputs, echo_body);
    return std::make_pair(gather_view(mail, 0).to_bytes(),
                          cluster.trace().structural_hash());
  };
  const auto plain = run(false);
  const auto audited = run(true);
  EXPECT_EQ(plain.first, audited.first);   // same routed bytes
  EXPECT_EQ(plain.second, audited.second); // same metered trace
}

TEST(Audit, CleanReportCountsRoundsAndReplays) {
  Cluster cluster(audited_config(2));
  std::vector<Bytes> inputs{payload_of(1), payload_of(2)};
  cluster.run_round("r0", inputs, echo_body);
  cluster.run_round("r1", inputs, echo_body);
  const AuditReport& report = cluster.audit_report();
  EXPECT_EQ(report.rounds_audited, 2u);
  EXPECT_EQ(report.replays_run, 2u);
}

TEST(Audit, DetectsScheduleDependentBody) {
  // The classic leak: machines share a mutable counter, so each machine's
  // output encodes its execution order.  The serial main run hands out
  // 0,1,2,... in machine order; the permuted replay hands them out in
  // permutation order — the fingerprints diverge.  A body cannot capture
  // the counter, but it can still reach a static one.
  Cluster cluster(audited_config(1));
  std::vector<Bytes> inputs(8);
  try {
    cluster.run_round("leaky", inputs, [](MachineContext& ctx) {
      static std::atomic<std::uint32_t> counter{0};
      ByteWriter w;
      w.put(counter.fetch_add(1));
      ctx.emit(0, std::move(w).take());
    });
    FAIL() << "expected AuditError";
  } catch (const AuditError& e) {
    const AuditViolation& v = e.violation();
    EXPECT_EQ(v.kind, AuditViolationKind::kScheduleDependence);
    EXPECT_EQ(v.round, 0u);
    EXPECT_EQ(v.round_label, "leaky");
    EXPECT_LT(v.machine, 8u);  // the offending machine is identified
    EXPECT_NE(std::string(e.what()).find("leaky"), std::string::npos);
  }
}

TEST(Audit, DetectsUnaccountedCommunication) {
  ClusterConfig config = audited_config(1);
  config.audit.inject_after_round = [](std::size_t round, std::size_t machine,
                                       std::vector<Envelope>& outbox) {
    if (round == 1 && machine == 2) {
      outbox.push_back(Envelope{0, Bytes(3, std::byte{0x42})});
    }
  };
  Cluster cluster(config);
  std::vector<Bytes> inputs(4);
  for (std::uint32_t i = 0; i < 4; ++i) inputs[i] = payload_of(i);
  cluster.run_round("clean", inputs, echo_body);
  try {
    cluster.run_round("injected", inputs, echo_body);
    FAIL() << "expected AuditError";
  } catch (const AuditError& e) {
    const AuditViolation& v = e.violation();
    EXPECT_EQ(v.kind, AuditViolationKind::kCommAccounting);
    EXPECT_EQ(v.round, 1u);
    EXPECT_EQ(v.round_label, "injected");
    EXPECT_EQ(v.machine, AuditViolation::kNoMachine);
    // 4 machines × 4 accounted bytes, plus 3 injected phantom bytes.
    EXPECT_NE(v.detail.find("19"), std::string::npos);
    EXPECT_NE(v.detail.find("16"), std::string::npos);
  }
}

// ---------------------------------------------------------------------------
// The real pipelines are model-conformant: auditing them end to end finds
// nothing and does not perturb a single metered byte, on either backend.
// On the process backend the bodies run forked and the replay runs on the
// host, so the two executions share nothing but the inputs.
// ---------------------------------------------------------------------------

class AuditPipeline : public ::testing::TestWithParam<BackendKind> {};

TEST_P(AuditPipeline, UlamPipelineConformsUnderAudit) {
  const auto s = core::random_permutation(400, 3);
  const auto t = core::plant_edits(s, 24, 4, true).text;
  ulam_mpc::UlamMpcParams params;
  params.workers = 2;
  params.backend = GetParam();
  const auto plain = ulam_mpc::ulam_distance_mpc(s, t, params);
  params.audit.enabled = true;  // a violation would throw AuditError
  const auto audited = ulam_mpc::ulam_distance_mpc(s, t, params);
  EXPECT_EQ(plain.distance, audited.distance);
  EXPECT_EQ(plain.trace.structural_hash(), audited.trace.structural_hash());
  EXPECT_GT(audited.trace.round_count(), 0u);
}

TEST_P(AuditPipeline, EditPipelineConformsUnderAudit) {
  const auto s = core::random_string(300, 8, 5);
  const auto t = core::plant_edits(s, 18, 6, false).text;
  edit_mpc::EditMpcParams params;
  params.workers = 2;
  params.backend = GetParam();
  const auto plain = edit_mpc::edit_distance_mpc(s, t, params);
  params.audit.enabled = true;
  const auto audited = edit_mpc::edit_distance_mpc(s, t, params);
  EXPECT_EQ(plain.distance, audited.distance);
  EXPECT_EQ(plain.trace.structural_hash(), audited.trace.structural_hash());
  EXPECT_GT(audited.trace.round_count(), 0u);
}

TEST_P(AuditPipeline, HssPipelineConformsUnderAudit) {
  const auto s = core::random_string(240, 8, 7);
  const auto t = core::plant_edits(s, 12, 8, false).text;
  edit_mpc::HssBaselineParams params;
  params.workers = 2;
  params.backend = GetParam();
  const auto plain = edit_mpc::hss_edit_distance_mpc(s, t, params);
  // The audit must reach every guess pipeline's cluster: the (read-only)
  // injection hook counts the machines it audited.
  auto audited_machines = std::make_shared<std::atomic<std::size_t>>(0);
  params.audit.enabled = true;
  params.audit.inject_after_round = [audited_machines](std::size_t, std::size_t,
                                                       std::vector<Envelope>&) {
    audited_machines->fetch_add(1);
  };
  const auto audited = edit_mpc::hss_edit_distance_mpc(s, t, params);
  EXPECT_EQ(plain.distance, audited.distance);
  EXPECT_EQ(plain.trace.structural_hash(), audited.trace.structural_hash());
  std::size_t machines = 0;
  for (const auto& round : audited.trace.rounds()) machines += round.machines;
  EXPECT_GT(machines, 0u);
  EXPECT_GE(audited_machines->load(), machines);
}

TEST_P(AuditPipeline, BatchPipelinesConformUnderAudit) {
  core::BatchRequest request;
  request.algorithm = core::BatchAlgorithm::kEdit;
  request.mode = core::BatchMode::kThroughput;
  // Auditing the *plan* requires the plan to run; a routed-away batch
  // would make this test vacuous under MPCSD_ROUTER=auto.
  request.router = core::RouterPolicy::kOff;
  request.edit.workers = 2;
  request.edit.backend = GetParam();
  for (std::uint64_t q = 0; q < 3; ++q) {
    const auto s = core::random_string(200, 6, 10 + q);
    core::BatchQuery query;
    query.s = s;
    query.t = core::plant_edits(s, 10, 20 + q, false).text;
    request.queries.push_back(std::move(query));
  }
  const auto plain = core::distance_batch(request);
  request.edit.audit.enabled = true;
  const auto audited = core::distance_batch(request);
  ASSERT_EQ(plain.queries.size(), audited.queries.size());
  for (std::size_t q = 0; q < plain.queries.size(); ++q) {
    EXPECT_EQ(plain.queries[q].distance, audited.queries[q].distance);
  }
  EXPECT_EQ(plain.trace.structural_hash(), audited.trace.structural_hash());
  EXPECT_GT(audited.trace.round_count(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Backends, AuditPipeline,
    ::testing::Values(BackendKind::kThread, BackendKind::kProcess),
    [](const ::testing::TestParamInfo<BackendKind>& info) {
      return std::string(backend_kind_name(info.param));
    });

}  // namespace
}  // namespace mpcsd::mpc
