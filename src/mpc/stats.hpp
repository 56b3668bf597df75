// Execution metrics for the MPC simulator.
//
// The MPC model is judged on four quantities — rounds, number of machines,
// per-machine memory, and total computation (plus communication volume).
// Every `Cluster::run_round` produces a `RoundReport`; traces compose
// sequentially (pipeline stages) or in parallel (the paper runs all guesses
// of n^delta, and all thresholds tau, side by side in the same rounds).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace mpcsd::mpc {

/// Metrics of a single simulated machine within one round.
struct MachineReport {
  std::uint64_t input_bytes = 0;
  std::uint64_t output_bytes = 0;
  std::uint64_t scratch_bytes = 0;
  std::uint64_t work = 0;  ///< algorithmic operations charged by the machine

  [[nodiscard]] std::uint64_t memory_footprint() const noexcept {
    return input_bytes + output_bytes + scratch_bytes;
  }
};

/// Aggregated metrics of one communication round.
struct RoundReport {
  std::string label;
  std::size_t machines = 0;
  std::uint64_t max_machine_memory = 0;  ///< max footprint over machines
  std::uint64_t total_comm_bytes = 0;    ///< sum of outputs (next-round traffic)
  std::uint64_t total_input_bytes = 0;
  std::uint64_t total_work = 0;
  std::uint64_t max_machine_work = 0;    ///< parallel-time proxy for the round
  double wall_seconds = 0.0;
  double driver_seconds = 0.0;           ///< host-side glue time before the round
  std::size_t memory_violations = 0;     ///< machines exceeding the configured cap
};

/// A full execution: an ordered list of rounds.
class ExecutionTrace {
 public:
  void add_round(RoundReport round) { rounds_.push_back(std::move(round)); }

  [[nodiscard]] const std::vector<RoundReport>& rounds() const noexcept {
    return rounds_;
  }

  [[nodiscard]] std::size_t round_count() const noexcept { return rounds_.size(); }

  /// Max over rounds of the machine count (the "# machines" column).
  [[nodiscard]] std::size_t max_machines() const noexcept;

  /// Max over all machines in all rounds of the memory footprint.
  [[nodiscard]] std::uint64_t max_machine_memory() const noexcept;

  /// Sum of all machines' charged work (the "total running time" column).
  [[nodiscard]] std::uint64_t total_work() const noexcept;

  /// Sum over rounds of the per-round max machine work (the "parallel
  /// running time" of the paper).
  [[nodiscard]] std::uint64_t critical_path_work() const noexcept;

  [[nodiscard]] std::uint64_t total_comm_bytes() const noexcept;

  [[nodiscard]] std::size_t memory_violations() const noexcept;

  /// Order-sensitive hash of the model-relevant content of every round:
  /// labels, machine counts, byte and work accounting, violations.  The
  /// wall-clock fields are excluded, so two executions of the same
  /// algorithm hash identically iff they made the same model-level
  /// decisions — regardless of worker count, schedule, or auditing.  This
  /// is the quantity the determinism regression gate and the auditor's
  /// transparency check compare.
  [[nodiscard]] std::uint64_t structural_hash() const noexcept;

  /// Appends `other`'s rounds after this trace's rounds (sequential stages).
  void append_sequential(const ExecutionTrace& other);

  /// Zips `other`'s rounds with this trace's rounds (side-by-side parallel
  /// execution, e.g. one pipeline per guess of n^delta): machine counts,
  /// work, and communication add; maxima combine by max; labels join with
  /// `|`, each part once.  Traces of unequal length pad with empty rounds.
  void merge_parallel(const ExecutionTrace& other);

  /// Human-readable multi-line summary (used by benches and examples).
  [[nodiscard]] std::string summary() const;

  /// Machine-readable CSV (one row per round, with a header) for plotting.
  [[nodiscard]] std::string to_csv() const;

 private:
  std::vector<RoundReport> rounds_;
};

/// Splits one shared round among the owners of its machines: entry o
/// aggregates the reports of the machines with owner[i] == o, exactly as
/// the cluster aggregates a whole round, with violations re-checked against
/// the owner's own cap caps[o].  Wall-clock fields stay 0: an owner shares
/// the round's interval with every co-scheduled owner.
std::vector<RoundReport> attribute_round(const std::string& label,
                                         const std::vector<MachineReport>& reports,
                                         const std::vector<std::uint32_t>& owner,
                                         const std::vector<std::uint64_t>& caps);

}  // namespace mpcsd::mpc
