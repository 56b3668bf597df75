// Implementation of the model-conformance auditor.  The audited execution
// hooks (`Cluster::audit_*`) live here rather than in cluster.cpp so the
// simulator's fast path stays readable; they are members of Cluster because
// they verify its round-scoped arenas (outboxes, reports) in place.
#include "mpc/audit.hpp"

#include <numeric>
#include <sstream>
#include <utility>

#include "common/hash.hpp"
#include "mpc/cluster.hpp"

namespace mpcsd::mpc {

namespace {

/// Seed of the per-round machine-order permutation used by the replay.
constexpr std::uint64_t kReplayPermutationSeed = 0x5eedULL;

/// Fingerprint of one machine's observable effect: every emitted envelope
/// (destination + payload bytes, in emission order) and the metering
/// report minus input bytes (which are fixed by construction).
std::uint64_t fingerprint(const std::vector<Envelope>& outbox,
                          const MachineReport& report) {
  std::uint64_t h = kFnvOffset;
  for (const Envelope& env : outbox) {
    h = hash_mix(h, env.dest);
    h = hash_mix(h, env.payload.size());
    h = hash_bytes(env.payload.data(), env.payload.size(), h);
  }
  h = hash_mix(h, report.output_bytes);
  h = hash_mix(h, report.scratch_bytes);
  h = hash_mix(h, report.work);
  return h;
}

std::string hex(std::uint64_t v) {
  std::ostringstream os;
  os << "0x" << std::hex << v;
  return os.str();
}

}  // namespace

const char* to_string(AuditViolationKind kind) noexcept {
  switch (kind) {
    case AuditViolationKind::kCommAccounting:
      return "comm-accounting";
    case AuditViolationKind::kScheduleDependence:
      return "schedule-dependence";
  }
  return "unknown";
}

std::string AuditViolation::describe() const {
  std::ostringstream os;
  os << "audit violation [" << to_string(kind) << "] round " << round << " '"
     << round_label << "'";
  if (machine != kNoMachine) os << " machine " << machine;
  if (!detail.empty()) os << ": " << detail;
  return os.str();
}

AuditError::AuditError(AuditViolation violation)
    : std::runtime_error(violation.describe()), violation_(std::move(violation)) {}

void Cluster::audit_replay(const std::string& label, std::size_t round,
                           const std::vector<ByteChain>& inputs,
                           const BodyEntry& body, const void* params) {
  const std::size_t machines = inputs.size();
  ++audit_report_.replays_run;

  std::vector<std::uint64_t> main_print(machines);
  for (std::size_t i = 0; i < machines; ++i) {
    main_print[i] = fingerprint(outboxes_[i], reports_[i]);
  }

  // Permuted execution order, deterministic per (seed, round).
  std::vector<std::size_t> perm(machines);
  std::iota(perm.begin(), perm.end(), std::size_t{0});
  Pcg32 rng = derive_stream(kReplayPermutationSeed ^ config_.seed, round);
  for (std::size_t i = machines; i > 1; --i) {
    std::swap(perm[i - 1], perm[rng.below(static_cast<std::uint32_t>(i))]);
  }

  // Always a different worker count than the main pool's.
  const std::size_t replay_workers = pool_->worker_count() > 1 ? 1 : 2;

  std::vector<std::vector<Envelope>> replay_out(machines);
  std::vector<MachineReport> replay_reports(machines);
  std::vector<std::string> replay_errors(machines);
  const auto run_one = [&](std::size_t slot) {
    const std::size_t i = perm[slot];
    MachineContext ctx(i, &inputs[i], derive_stream(config_.seed, round, i),
                       &replay_out[i]);
    ctx.report_.input_bytes = inputs[i].total_bytes();
    try {
      body.call(body.fn, ctx, params);
    } catch (const std::exception& e) {
      replay_errors[i] = e.what();
    }
    replay_reports[i] = ctx.report_;
  };
  if (replay_workers == 1) {
    for (std::size_t slot = 0; slot < machines; ++slot) run_one(slot);
  } else {
    if (!replay_pool_) replay_pool_ = std::make_unique<ThreadPool>(replay_workers);
    replay_pool_->parallel_for(machines, run_one, /*grain=*/1);
  }

  for (std::size_t i = 0; i < machines; ++i) {
    if (!replay_errors[i].empty()) {
      throw AuditError(AuditViolation{
          AuditViolationKind::kScheduleDependence, label, round, i,
          "machine body threw only under replay: " + replay_errors[i]});
    }
    const std::uint64_t replayed =
        fingerprint(replay_out[i], replay_reports[i]);
    if (replayed != main_print[i]) {
      throw AuditError(AuditViolation{
          AuditViolationKind::kScheduleDependence, label, round, i,
          "outbox/report fingerprint diverged under permuted-order replay (" +
              hex(main_print[i]) + " with " +
              std::to_string(pool_->worker_count()) + " workers vs " +
              hex(replayed) + " with " + std::to_string(replay_workers) + ")"});
    }
  }
}

void Cluster::audit_inject(std::size_t round) {
  for (std::size_t i = 0; i < reports_.size(); ++i) {
    config_.audit.inject_after_round(round, i, outboxes_[i]);
  }
}

void Cluster::audit_verify_comm(const std::string& label, std::size_t round,
                                const Mail& mail, std::uint64_t reported_bytes) {
  std::uint64_t actual = 0;
  for (const Envelope& env : mail.all()) actual += env.payload.size();
  if (actual != reported_bytes) {
    throw AuditError(AuditViolation{
        AuditViolationKind::kCommAccounting, label, round,
        AuditViolation::kNoMachine,
        "routed mail carries " + std::to_string(actual) +
            " bytes but machines accounted " + std::to_string(reported_bytes)});
  }
}

}  // namespace mpcsd::mpc
