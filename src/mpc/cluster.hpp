// The MPC cluster simulator.
//
// Semantics (matching the model in Section 1 of the paper):
//   * An algorithm is a sequence of rounds.  `run_round` executes one round:
//     machine i receives exactly its input bytes, computes locally (no view
//     of any other machine's state), and emits messages addressed to named
//     mailboxes that the driver routes into the next round's inputs.
//   * Per-machine memory is input + emitted output + declared scratch; a
//     configurable cap models the Õ(n^{1-x}) per-machine limit.  Violations
//     are either recorded (default, so benches can report them) or fatal
//     (`strict_memory`, used by tests to prove compliance).
//   * Machines of a round execute concurrently on a thread pool; each gets
//     a deterministic private RNG stream derived from (seed, round,
//     machine), so results are reproducible regardless of scheduling.
//   * Work is charged explicitly by the machine body (DP cells etc.), which
//     is what the "total running time" column of Table 1 counts.
//
// Mail routing is zero-copy: emitted payloads are moved (never re-copied)
// from the outbox arenas into a flat `Mail` ordered by destination via a
// stable counting/radix scatter, and `gather_view` hands the next round's
// machines a `ByteChain` over the payloads in place — the old
// map-of-vectors merge plus `gather`/`concat` copied every inter-machine
// byte twice per round.  The routing order is unchanged: ascending mailbox
// id, and within a mailbox ascending (machine id, emission index).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "mpc/audit.hpp"
#include "mpc/backend.hpp"
#include "mpc/body.hpp"
#include "mpc/stats.hpp"
#include "obs/recorder.hpp"

namespace mpcsd::mpc {

/// How the simulator executes machine bodies.  None of these knobs changes
/// the model: rounds, machine counts, metering and answers are the same
/// under every setting (the audit and the recorder only observe).  Every
/// solver params struct derives from this, so a driver hands its options
/// to the cluster in one step (`ClusterConfig config{params};`).
struct ExecOptions {
  /// Thread-pool size; 0 = hardware concurrency.
  std::size_t workers = 0;
  /// Throw MemoryLimitExceeded instead of recording a violation.
  bool strict_memory = false;
  /// How machine bodies execute: the shared thread pool (seed semantics)
  /// or forked worker processes with shared-memory result arenas (physical
  /// isolation).  kAuto resolves through MPCSD_BACKEND and defaults to
  /// thread.  Results and metering are backend-invariant; see backend.hpp.
  BackendKind backend = BackendKind::kAuto;
  /// Model-conformance auditing (opt-in, metering-neutral); see audit.hpp.
  AuditOptions audit{};
  /// Observability spine (opt-in, metering-neutral): when non-null, every
  /// round emits a span plus comm/work/memory and pool counters through the
  /// recorder's sinks.  Null or sink-less recorders cost one inlined check
  /// on the round path (see obs/recorder.hpp).
  obs::Recorder* recorder = nullptr;
};

struct ClusterConfig : ExecOptions {
  /// Per-machine memory cap in bytes; default unlimited.
  std::uint64_t memory_limit_bytes = UINT64_MAX;
  /// Root seed for all machine RNG streams.
  std::uint64_t seed = 0;
};

class MemoryLimitExceeded : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

// `Envelope` — one routed message — lives in mpc/transport.hpp now: it is
// the transport layer's data unit (included here via mpc/backend.hpp).

/// The merged mail of one round: a flat vector of envelopes, stable-sorted
/// by destination (within a mailbox: machine id order, then emission order —
/// exactly the order the old map-of-vectors produced).
class Mail {
 public:
  Mail() = default;

  [[nodiscard]] bool empty() const noexcept { return msgs_.empty(); }
  [[nodiscard]] std::size_t message_count() const noexcept { return msgs_.size(); }

  /// All envelopes for `dest`, in deterministic order (empty span if none).
  [[nodiscard]] std::span<const Envelope> at(std::uint32_t dest) const noexcept;

  /// Every envelope, sorted by (dest, machine id, emission index).
  [[nodiscard]] const std::vector<Envelope>& all() const noexcept { return msgs_; }

 private:
  friend class Cluster;
  std::vector<Envelope> msgs_;
};

class Cluster;

/// The per-machine execution context handed to the round body.  A machine's
/// input is a `ByteChain` — one fragment per routed payload — read in place.
class MachineContext {
 public:
  [[nodiscard]] const ByteChain& input() const noexcept { return *input_; }
  [[nodiscard]] ChainReader reader() const { return ChainReader(*input_); }
  [[nodiscard]] std::size_t machine_id() const noexcept { return id_; }

  /// Sends `payload` to mailbox `dest` for the next round.
  void emit(std::uint32_t dest, Bytes payload);

  /// Charges `ops` units of local computation.
  void charge_work(std::uint64_t ops) noexcept { report_.work += ops; }

  /// Declares peak scratch memory beyond input/output.
  void charge_scratch(std::uint64_t bytes) noexcept {
    if (bytes > report_.scratch_bytes) report_.scratch_bytes = bytes;
  }

  /// Deterministic private random stream for this (round, machine).
  [[nodiscard]] Pcg32& rng() noexcept { return rng_; }

 private:
  friend class Cluster;
  friend class ThreadBackend;
  /// The process backend's workers build contexts through the partition
  /// runner in transport.cpp.
  friend BarrierRecord run_claimed_machines(
      const BodyEntry& body, const RoundCommand& command,
      std::atomic<std::uint64_t>& next, const std::vector<ByteChain>& inputs,
      ByteWriter& out);
  MachineContext(std::size_t id, const ByteChain* input, Pcg32 rng,
                 std::vector<Envelope>* outbox)
      : id_(id), input_(input), rng_(rng), outbox_(outbox) {}

  std::size_t id_;
  const ByteChain* input_;
  Pcg32 rng_;
  MachineReport report_;
  /// Borrowed slot in the cluster's per-machine outbox arena; its capacity
  /// survives across rounds so steady-state rounds emit without allocating.
  std::vector<Envelope>* outbox_;
};

/// Per-round execution overrides, used by the batch driver: queries of
/// different sizes co-scheduled in one round carry different Õ(n^{1-x})
/// caps, and per-query trace attribution needs the machine-level reports.
struct RoundOptions {
  /// Per-machine memory caps (bytes), parallel to the round's inputs.
  /// Overrides the cluster-wide `memory_limit_bytes` when non-null.
  const std::vector<std::uint64_t>* machine_memory_limits = nullptr;
  /// When non-null, receives every machine's report after the round (in
  /// machine-id order), for per-query aggregation.
  std::vector<MachineReport>* machine_reports = nullptr;
  /// Host-side glue seconds spent preparing this round (sharding, routing,
  /// request packing); stamped into the RoundReport at creation.  The plan
  /// Driver fills this from its glue clock — forward, at submission, not by
  /// back-annotating the trace after the fact.
  double driver_seconds = 0.0;
};

class Cluster {
 public:
  explicit Cluster(ClusterConfig config);

  /// Executes one round with `inputs.size()` machines, each running the
  /// capture-free `body` (see mpc/body.hpp).  Returns the merged mail for
  /// the next round.  Round metrics are appended to the trace.
  Mail run_round(const std::string& label, const std::vector<Bytes>& inputs,
                 const Body<MachineContext>& body,
                 const RoundOptions& options = {});

  /// As above; every machine body also receives `params`, encoded once here
  /// and decoded once per round in each executing process.
  template <typename P>
  Mail run_round(const std::string& label, const std::vector<Bytes>& inputs,
                 const std::type_identity_t<Body<MachineContext, P>>& body,
                 const P& params, const RoundOptions& options = {}) {
    return run_body(label, wrap_inputs(inputs), body.ref(),
                    encode_params(params), options);
  }

  /// Zero-copy variant: each machine's input is a chain of byte fragments
  /// (typically `gather_view` of the previous round's mail) read in place.
  /// The storage the chains reference must stay alive for the call.
  /// Metering is byte-identical to feeding the concatenated buffers.
  Mail run_round_views(const std::string& label, const std::vector<ByteChain>& inputs,
                       const Body<MachineContext>& body,
                       const RoundOptions& options = {});

  template <typename P>
  Mail run_round_views(const std::string& label, const std::vector<ByteChain>& inputs,
                       const std::type_identity_t<Body<MachineContext, P>>& body,
                       const P& params, const RoundOptions& options = {}) {
    return run_body(label, inputs, body.ref(), encode_params(params), options);
  }

  /// The round every overload above (and `Driver`'s stages) lowers to: the
  /// registered `body` over the encoded round `params`.
  Mail run_body(const std::string& label, const std::vector<ByteChain>& inputs,
                const BodyRef& body, ByteSpan params,
                const RoundOptions& options = {});

  [[nodiscard]] const ExecutionTrace& trace() const noexcept { return trace_; }
  [[nodiscard]] ExecutionTrace take_trace() { return std::move(trace_); }
  [[nodiscard]] const ClusterConfig& config() const noexcept { return config_; }

  /// The attached observability recorder (null when detached).
  [[nodiscard]] obs::Recorder* recorder() const noexcept {
    return config_.recorder;
  }

  /// The worker pool executing machine bodies.  Drivers reuse it for the
  /// host-side plane between rounds (shard encode, input construction) so
  /// driver glue scales with the same worker budget as the rounds.
  [[nodiscard]] ThreadPool& pool() noexcept { return *pool_; }

  /// The execution backend running machine bodies ("thread" | "process").
  [[nodiscard]] const ExecutionBackend& backend() const noexcept {
    return *backend_;
  }

  /// Bytes currently pinned by the round-scoped arenas (outbox slots, sort
  /// scratch, radix histograms, input chains).  Observable so tests can pin
  /// the high-water-mark decay; not part of machine metering.
  [[nodiscard]] std::size_t arena_footprint_bytes() const noexcept;

  /// Rounds and replays audited so far (zero unless `config.audit.enabled`;
  /// a violation throws AuditError instead of being recorded).
  [[nodiscard]] const AuditReport& audit_report() const noexcept {
    return audit_report_;
  }

 private:
  /// Routes the first `machines` outboxes into `out`, ordered by (dest,
  /// machine id, emission index).  Large mails take a counting/LSD-radix
  /// bucket-by-destination path — parallel per-chunk histograms, a serial
  /// prefix walk, then contiguous parallel scatters — byte-identical to a
  /// global stable sort by dest (pinned by test), without its serial wall
  /// time or comparator overhead.  Chunks are balanced by envelope count
  /// plus payload bytes so emission skew doesn't serialize one chunk.
  void route_mail(std::size_t machines, std::vector<Envelope>& out);

  /// Wraps each contiguous input as a single-fragment chain (no copy) in
  /// the `input_chains_` arena.
  const std::vector<ByteChain>& wrap_inputs(const std::vector<Bytes>& inputs);

  /// High-water-mark decay for the round-scoped arenas: after enough
  /// consecutive rounds using a small fraction of the retained capacity,
  /// releases it so one skewed round (a 1MB-payload burst) doesn't pin
  /// peak memory for the life of a long-running batch process.
  void maybe_decay_arenas(std::size_t machines, std::size_t envelopes);

  // --- audited execution path (implemented in audit.cpp) ---------------

  void audit_replay(const std::string& label, std::size_t round,
                    const std::vector<ByteChain>& inputs, const BodyEntry& body,
                    const void* params);
  void audit_inject(std::size_t round);
  void audit_verify_comm(const std::string& label, std::size_t round,
                         const Mail& mail, std::uint64_t reported_bytes);

  ClusterConfig config_;
  std::shared_ptr<ThreadPool> pool_;
  std::unique_ptr<ExecutionBackend> backend_;
  ExecutionTrace trace_;
  std::size_t round_index_ = 0;

  // Round-scoped arenas, reused across rounds (escalation loops run many
  // structurally similar rounds; reallocating these every round showed up
  // in the batch-serving driver plane).  `maybe_decay_arenas` releases them
  // after sustained low usage.
  std::vector<std::vector<Envelope>> outboxes_;
  std::vector<MachineReport> reports_;
  std::vector<Envelope> route_scratch_;
  std::vector<std::uint32_t> radix_counts_;
  std::vector<ByteChain> input_chains_;
  std::size_t arena_low_rounds_ = 0;

  // Audit state: counts and the differently-sized replay pool (lazy).
  AuditReport audit_report_;
  std::unique_ptr<ThreadPool> replay_pool_;
};

/// Zero-copy gather: a chain over the mailbox payloads in place.  The
/// returned chain borrows from `mail`, which must outlive it.  (The old
/// copying `gather` is retired from the library surface; every library
/// call site reads mailboxes through views.)
ByteChain gather_view(const Mail& mail, std::uint32_t dest);

}  // namespace mpcsd::mpc
