// MPC model-conformance auditing.
//
// The simulator promises the model of Section 1 of the paper: within a
// round every machine sees exactly its routed input bytes, shares no state
// with any other machine, and the trace's communication columns count
// exactly the bytes that crossed machines.  "Shares no state" is enforced
// before any run: a round body is a capture-free function (a capturing
// lambda does not compile, mpc/body.hpp), mpcsd_verify's `conf-const-cast`
// rule rejects bodies that write through their const inbox view,
// `-Wold-style-cast` closes the C-cast route around it, and the process
// backend runs bodies in separate address spaces.  What no static rule
// sees is checked here, on every round, when `AuditOptions::enabled` is
// set:
//
//   * Communication accounting: after routing, the bytes physically
//     present in the round's mail must equal the sum of byte-metered
//     `emit` calls — the `total_comm_bytes` column is certified against the
//     actual traffic.
//   * Dual-schedule replay: every round is re-executed on the host with a
//     permuted machine order on a different worker count, and each
//     machine's outbox bytes + metering report must be identical to
//     the first execution.  Any dependence on schedule — shared mutable
//     state, cross-machine reads, order-sensitive side effects — shows up
//     as a fingerprint mismatch on the offending machine.
//
// The first violation throws `AuditError`.  Auditing is metering-neutral:
// an audited execution produces a byte-identical `ExecutionTrace` (checked
// by `ExecutionTrace::structural_hash`).  Machine bodies must be idempotent
// per (round, machine) — exactly what the MPC model requires of them.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

namespace mpcsd::mpc {

struct Envelope;

enum class AuditViolationKind : std::uint8_t {
  /// Reported communication bytes differ from the bytes actually routed.
  kCommAccounting,
  /// Permuted-order / different-worker replay produced a different outbox
  /// or metering report: the result depends on the schedule.
  kScheduleDependence,
};

[[nodiscard]] const char* to_string(AuditViolationKind kind) noexcept;

struct AuditViolation {
  AuditViolationKind kind = AuditViolationKind::kCommAccounting;
  std::string round_label;
  std::size_t round = 0;    ///< round index within the cluster's execution
  /// Offending machine id; `kNoMachine` for round-level violations.
  std::size_t machine = kNoMachine;
  std::string detail;

  static constexpr std::size_t kNoMachine = static_cast<std::size_t>(-1);

  [[nodiscard]] std::string describe() const;
};

/// Thrown on the first violation of an audited round.
class AuditError : public std::runtime_error {
 public:
  explicit AuditError(AuditViolation violation);

  [[nodiscard]] const AuditViolation& violation() const noexcept {
    return violation_;
  }

 private:
  AuditViolation violation_;
};

struct AuditOptions {
  /// Master switch; when false the simulator runs the plain fast path.
  bool enabled = false;
  /// Test-only fault injection: invoked once per machine after the round's
  /// bodies (and the replay comparison) have finished, with mutable access
  /// to that machine's outbox.  Lets the negative tests seed an unaccounted
  /// emission and prove the accounting check fires.  Never set in
  /// production configurations.
  std::function<void(std::size_t round, std::size_t machine,
                     std::vector<Envelope>& outbox)>
      inject_after_round;
};

struct AuditReport {
  std::size_t rounds_audited = 0;
  std::size_t replays_run = 0;
};

}  // namespace mpcsd::mpc
