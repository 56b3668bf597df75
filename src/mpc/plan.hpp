// The declarative round-plan layer over the MPC cluster simulator.
//
// The four pipeline drivers (Theorem 4 Ulam, Lemma 6 small-distance,
// Lemma 8 large-distance, and the [20] baseline) are all the same shape: a
// short sequence of *stages*, each of which shards typed records onto
// machines, runs one simulated round, and routes typed messages through
// named mailboxes to the next stage.  This header makes that shape a
// first-class object:
//
//   * `Codec<T>`        — the wire format of a message type (mpc/codec.hpp).
//   * `Channel<T>`      — a named, typed mailbox: `send` only accepts `T`,
//     `Driver::receive` only decodes `T`.  Stage IO is type-checked at
//     compile time instead of being an untyped byte soup.
//   * `Stage<In, P>`    — a labelled, capture-free machine body over decoded
//     inputs and a round-params value `P` (see `Body` in mpc/body.hpp).
//   * `Plan`            — the declared stage graph (labels + channel
//     wiring), validated against execution order by the driver.
//   * `Driver`          — owns the cluster: shards typed inputs, executes
//     stages through the zero-copy `run_round_views` path, enforces the
//     declared stage order, and stamps per-stage driver-glue wall time into
//     the ExecutionTrace.
//
// Batched multi-query execution (core::distance_batch) builds on the same
// layer: machines of B independent queries share the simulated rounds, with
// per-query channels (mailbox = query id) and per-machine memory caps
// (RoundOptions) keeping attribution and the Õ(n^{1-x}) guarantee per query.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/bytes.hpp"
#include "common/timer.hpp"
#include "mpc/cluster.hpp"
#include "mpc/codec.hpp"

namespace mpcsd::mpc {

// ---------------------------------------------------------------------------
// Channels, stages, plans.
// ---------------------------------------------------------------------------

/// A named, typed mailbox.  The type parameter is the only thing that can
/// be sent into or received out of the channel.
template <typename T>
struct Channel {
  constexpr explicit Channel(std::uint32_t mailbox, const char* name = "")
      : mailbox(mailbox), name(name) {}

  std::uint32_t mailbox = 0;
  const char* name = "";
};

/// The typed per-machine execution context of one stage: the decoded input
/// message plus typed sends.  `machine()` exposes the raw context for
/// metering escapes (none of the ported drivers need it for IO).
template <typename In>
class StageContext {
 public:
  using Input = In;

  StageContext(MachineContext& machine, In input)
      : machine_(machine), input_(std::move(input)) {}
  /// Decodes the machine's whole input as one `In` (how a stage body's
  /// context is built; see `Body`).
  explicit StageContext(MachineContext& machine)
      : machine_(machine), input_(decode_input(machine)) {}

  [[nodiscard]] const In& in() const noexcept { return input_; }
  [[nodiscard]] In& in() noexcept { return input_; }
  [[nodiscard]] std::size_t machine_id() const noexcept {
    return machine_.machine_id();
  }
  [[nodiscard]] Pcg32& rng() noexcept { return machine_.rng(); }
  void charge_work(std::uint64_t ops) noexcept { machine_.charge_work(ops); }
  void charge_scratch(std::uint64_t bytes) noexcept {
    machine_.charge_scratch(bytes);
  }

  /// Type-checked emit: encodes `msg` as one payload on `ch`.
  template <typename T>
  void send(const Channel<T>& ch, const T& msg) {
    ByteWriter w;
    Codec<T>::encode(w, msg);
    machine_.emit(ch.mailbox, std::move(w).take());
  }

  [[nodiscard]] MachineContext& machine() noexcept { return machine_; }

 private:
  static In decode_input(MachineContext& machine) {
    ChainReader r(machine.input());
    return Codec<In>::decode(r);
  }

  MachineContext& machine_;
  In input_;
};

/// One labelled round: a capture-free machine body over decoded `In`
/// messages and the round's params `P`.  A `Stage` declared at namespace
/// scope registers its body at static initialisation, so a process
/// backend's workers forked later can already run it.
template <typename In, typename P = NoParams>
struct Stage {
  std::string label;
  Body<StageContext<In>, P> body;
};

/// Declared wiring of one stage: the label the executed stage must carry
/// plus human-readable channel descriptions (rendered by `Plan::describe`).
struct StageSpec {
  std::string label;
  std::string consumes;
  std::string produces;
};

/// The declarative stage graph of a pipeline.  The driver enforces that
/// stages execute in exactly the declared order with the declared labels —
/// the declaration cannot silently drift from the execution.
struct Plan {
  std::string name;
  std::vector<StageSpec> stages;
  /// When true, the declared stage sequence may execute any whole number of
  /// times (adaptive escalation re-enters the plan once per guess rung with
  /// the unresolved survivors); `finish()` then accepts any number of
  /// complete passes but still rejects a partially executed pass.
  bool repeating = false;

  [[nodiscard]] std::string describe() const;
};

class PlanError : public std::logic_error {
 public:
  using std::logic_error::logic_error;
};

// ---------------------------------------------------------------------------
// Driver.
// ---------------------------------------------------------------------------

/// Executes a `Plan` stage by stage on an owned cluster.  All rounds go
/// through the zero-copy `run_round_views` path; per-stage driver-glue wall
/// time (input building between rounds) is stamped into the trace.
class Driver {
 public:
  Driver(Plan plan, ClusterConfig config);

  /// Encodes one machine input per record (the sharding step every seed
  /// driver hand-rolled).
  template <typename In>
  [[nodiscard]] static std::vector<Bytes> shard(const std::vector<In>& records) {
    std::vector<Bytes> inputs;
    inputs.reserve(records.size());
    for (const In& record : records) {
      ByteWriter w;
      Codec<In>::encode(w, record);
      inputs.push_back(std::move(w).take());
    }
    return inputs;
  }

  /// Parallel sharding on the cluster's worker pool: records encode
  /// independently into their slots, so the result is byte-identical to
  /// `shard` while the encode plane scales with the round workers.
  template <typename In>
  [[nodiscard]] std::vector<Bytes> shard_parallel(const std::vector<In>& records) {
    std::vector<Bytes> inputs(records.size());
    cluster_.pool().parallel_for(
        records.size(),
        [&](std::size_t i) {
          ByteWriter w;
          Codec<In>::encode(w, records[i]);
          inputs[i] = std::move(w).take();
        },
        /*grain=*/8);
    return inputs;
  }

  /// Runs the next declared stage with one machine per input buffer.
  template <typename In>
  Mail run(const Stage<In>& stage, const std::vector<Bytes>& inputs,
           const RoundOptions& options = {}) {
    return run(stage, inputs, NoParams{}, options);
  }

  /// As above, with the round params every machine body receives.
  template <typename In, typename P>
  Mail run(const Stage<In, P>& stage, const std::vector<Bytes>& inputs,
           const std::type_identity_t<P>& params,
           const RoundOptions& options = {}) {
    // `chains_` is a driver arena: escalation loops run many rounds of
    // similar shape, and the fragment lists keep their capacity across them.
    chains_.resize(inputs.size());
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      chains_[i].clear();
      chains_[i].add(ByteSpan(inputs[i]));
    }
    return run_views(stage, chains_, params, options);
  }

  /// Zero-copy variant: inputs are chains over routed mail fragments.
  template <typename In>
  Mail run_views(const Stage<In>& stage, const std::vector<ByteChain>& inputs,
                 const RoundOptions& options = {}) {
    return run_views(stage, inputs, NoParams{}, options);
  }

  template <typename In, typename P>
  Mail run_views(const Stage<In, P>& stage, const std::vector<ByteChain>& inputs,
                 const std::type_identity_t<P>& params,
                 const RoundOptions& options = {}) {
    // Stamp the driver-glue seconds forward into the round's report (via a
    // copy of the caller's options) instead of back-annotating the trace
    // after the round — the report is immutable once created.
    RoundOptions staged = options;
    staged.driver_seconds = begin_stage(stage.label);
    obs::Span stage_span(cluster_.recorder(), stage.label, "stage");
    Mail mail = cluster_.run_body(stage.label, inputs, stage.body.ref(),
                                  encode_params<P>(params), staged);
    if (stage_span) {
      stage_span.arg("glue_seconds", staged.driver_seconds)
          .arg("machines", static_cast<double>(inputs.size()));
      stage_span.finish();
    }
    glue_clock_.reset();
    return mail;
  }

  /// Decodes every message of `ch` (deterministic routing order).
  template <typename T>
  [[nodiscard]] std::vector<T> receive(const Mail& mail,
                                       const Channel<T>& ch) const {
    const ByteChain view = gather_view(mail, ch.mailbox);
    ChainReader r(view);
    std::vector<T> out;
    while (!r.exhausted()) out.push_back(Codec<T>::decode(r));
    return out;
  }

  /// Checks that every declared stage ran (for repeating plans: that the
  /// execution stopped on a whole pass).  Throws PlanError otherwise.
  void finish() const;

  /// Completed passes over a repeating plan (1 for a non-repeating plan
  /// that ran to completion).
  [[nodiscard]] std::size_t passes() const noexcept { return passes_; }

  [[nodiscard]] const Plan& plan() const noexcept { return plan_; }
  [[nodiscard]] Cluster& cluster() noexcept { return cluster_; }
  /// The backend executing this driver's rounds ("thread" | "process").
  [[nodiscard]] const ExecutionBackend& backend() const noexcept {
    return cluster_.backend();
  }
  [[nodiscard]] const ExecutionTrace& trace() const noexcept {
    return cluster_.trace();
  }
  [[nodiscard]] ExecutionTrace take_trace() { return cluster_.take_trace(); }

 private:
  /// Validates stage order; returns the driver-glue seconds accumulated
  /// since the previous stage ended (sharding, routing, request packing).
  double begin_stage(const std::string& label);

  Plan plan_;
  Cluster cluster_;
  std::size_t next_stage_ = 0;
  std::size_t passes_ = 0;
  Stopwatch glue_clock_;
  std::vector<ByteChain> chains_;
};

}  // namespace mpcsd::mpc
