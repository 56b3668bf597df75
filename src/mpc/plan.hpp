// The declarative round-plan layer over the MPC cluster simulator.
//
// The four pipeline drivers (Theorem 4 Ulam, Lemma 6 small-distance,
// Lemma 8 large-distance, and the [20] baseline) are all the same shape: a
// short sequence of *stages*, each of which shards typed records onto
// machines, runs one simulated round, and routes typed messages through
// named mailboxes to the next stage.  This header makes that shape a
// first-class object:
//
//   * `Codec<T>`        — the wire format of a message type.  Trivially
//     copyable types and vectors of them reuse the exact ByteWriter /
//     ChainReader encodings the hand-rolled drivers used, so porting a
//     driver onto the plan layer is byte-identical on the wire (proven by
//     the golden-trace test).  Aggregate message structs declare a
//     `fields()` tuple of member pointers; `std::variant` encodes a uint8
//     tag (heterogeneous machine families in one round, e.g. Algorithm 6's
//     pairing + sampled machines).
//   * `Channel<T>`      — a named, typed mailbox: `send` only accepts `T`,
//     `Driver::receive` only decodes `T`.  Stage IO is type-checked at
//     compile time instead of being an untyped byte soup.
//   * `Stage<In>`       — a labelled machine body over decoded inputs.
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
#include <functional>
#include <stdexcept>
#include <string>
#include <tuple>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "common/bytes.hpp"
#include "common/contracts.hpp"
#include "common/timer.hpp"
#include "mpc/cluster.hpp"

namespace mpcsd::mpc {

// ---------------------------------------------------------------------------
// Wire codecs.
// ---------------------------------------------------------------------------

template <typename T>
struct Codec;

/// Aggregate message structs opt in by declaring
///   static constexpr auto fields() { return std::make_tuple(&T::a, &T::b); }
/// members are encoded in declaration order with their own codecs.
template <typename T>
concept WireStruct = requires { T::fields(); };

/// Trivially copyable scalars/structs without a fields() override go over
/// the wire as raw bytes — exactly `ByteWriter::put`.
template <typename T>
concept WirePod = std::is_trivially_copyable_v<T> && !WireStruct<T>;

template <WirePod T>
struct Codec<T> {
  static void encode(ByteWriter& w, const T& value) { w.put(value); }
  template <typename Reader>
  static T decode(Reader& r) {
    return r.template get<T>();
  }
};

/// Vectors of trivially copyable elements use the length-prefixed
/// `put_vector` layout (the format every seed driver used for symbol
/// blocks, position maps, and tuple batches).
template <WirePod T>
struct Codec<std::vector<T>> {
  static void encode(ByteWriter& w, const std::vector<T>& v) { w.put_vector(v); }
  template <typename Reader>
  static std::vector<T> decode(Reader& r) {
    return r.template get_vector<T>();
  }
};

/// Vectors of composite messages: uint64 count + element-wise encoding.
template <typename T>
  requires(!WirePod<T>)
struct Codec<std::vector<T>> {
  static void encode(ByteWriter& w, const std::vector<T>& v) {
    w.put<std::uint64_t>(v.size());
    for (const T& e : v) Codec<T>::encode(w, e);
  }
  template <typename Reader>
  static std::vector<T> decode(Reader& r) {
    const auto n = r.template get<std::uint64_t>();
    std::vector<T> out;
    // No reserve: `n` comes off the wire; element decodes throw on overread.
    for (std::uint64_t i = 0; i < n; ++i) out.push_back(Codec<T>::decode(r));
    return out;
  }
};

template <>
struct Codec<std::string> {
  static void encode(ByteWriter& w, const std::string& s) { w.put_string(s); }
  template <typename Reader>
  static std::string decode(Reader& r) {
    return r.get_string();
  }
};

template <WireStruct T>
struct Codec<T> {
  static void encode(ByteWriter& w, const T& value) {
    std::apply(
        [&](auto... member) {
          (Codec<std::decay_t<decltype(value.*member)>>::encode(w, value.*member),
           ...);
        },
        T::fields());
  }
  template <typename Reader>
  static T decode(Reader& r) {
    T value{};
    std::apply(
        [&](auto... member) {
          ((value.*member =
                Codec<std::decay_t<decltype(value.*member)>>::decode(r)),
           ...);
        },
        T::fields());
    return value;
  }
};

/// Tagged union: uint8 alternative index + the alternative's encoding.  The
/// seed drivers' hand-written `tag` bytes (Algorithm 6's pairing=0 /
/// sampled=1 machines) map onto alternative order.
template <typename... Ts>
struct Codec<std::variant<Ts...>> {
  using V = std::variant<Ts...>;

  static void encode(ByteWriter& w, const V& value) {
    w.put<std::uint8_t>(static_cast<std::uint8_t>(value.index()));
    std::visit(
        [&](const auto& alt) {
          Codec<std::decay_t<decltype(alt)>>::encode(w, alt);
        },
        value);
  }
  template <typename Reader>
  static V decode(Reader& r) {
    const auto tag = r.template get<std::uint8_t>();
    MPCSD_EXPECTS(tag < sizeof...(Ts));
    return decode_at<0>(r, tag);
  }

 private:
  template <std::size_t I, typename Reader>
  static V decode_at(Reader& r, std::uint8_t tag) {
    if constexpr (I == sizeof...(Ts)) {
      throw std::logic_error("variant codec: unreachable tag");
    } else {
      if (tag == I) {
        return V{std::in_place_index<I>,
                 Codec<std::variant_alternative_t<I, V>>::decode(r)};
      }
      return decode_at<I + 1>(r, tag);
    }
  }
};

/// A whole mailbox decoded message-by-message: combine-style stages receive
/// one `Inbox<T>` holding every `T` the previous stage sent to the channel.
template <typename T>
struct Inbox {
  std::vector<T> messages;
};

template <typename T>
struct Codec<Inbox<T>> {
  // Inboxes are produced by mail routing, never encoded by a sender.
  static void encode(ByteWriter&, const Inbox<T>&) = delete;
  template <typename Reader>
  static Inbox<T> decode(Reader& r) {
    Inbox<T> in;
    while (!r.exhausted()) in.messages.push_back(Codec<T>::decode(r));
    return in;
  }
};

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
  StageContext(MachineContext& machine, In input)
      : machine_(machine), input_(std::move(input)) {}

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

  /// Encodes `value` onto the machine's unmetered diagnostics stash (see
  /// `MachineContext::stash_append`): the driver reads it back per machine
  /// through `RoundOptions::machine_stash` + `unstash`.  For results that
  /// are host-side bookkeeping rather than machine-to-machine traffic —
  /// mailbox channels stay the only metered communication.
  template <typename T>
  void stash(const T& value) {
    ByteWriter w;
    Codec<T>::encode(w, value);
    machine_.stash_append(std::move(w).take());
  }

  [[nodiscard]] MachineContext& machine() noexcept { return machine_; }

 private:
  MachineContext& machine_;
  In input_;
};

/// Decodes one value a stage body stashed via `StageContext::stash` from a
/// machine's `RoundOptions::machine_stash` slot.  Successive stashed values
/// decode with successive calls on one reader; this helper covers the
/// common one-value-per-machine case.
template <typename T>
[[nodiscard]] T unstash(const Bytes& stash) {
  ByteReader r(stash);
  return Codec<T>::decode(r);
}

/// One labelled round: a machine body over decoded `In` messages.
template <typename In>
struct Stage {
  std::string label;
  std::function<void(StageContext<In>&)> body;
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
    // `chains_` is a driver arena: escalation loops run many rounds of
    // similar shape, and the fragment lists keep their capacity across them.
    chains_.resize(inputs.size());
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      chains_[i].clear();
      chains_[i].add(ByteSpan(inputs[i]));
    }
    return run_views(stage, chains_, options);
  }

  /// Zero-copy variant: inputs are chains over routed mail fragments.
  template <typename In>
  Mail run_views(const Stage<In>& stage, const std::vector<ByteChain>& inputs,
                 const RoundOptions& options = {}) {
    // Stamp the driver-glue seconds forward into the round's report (via a
    // copy of the caller's options) instead of back-annotating the trace
    // after the round — the report is immutable once created.
    RoundOptions staged = options;
    staged.driver_seconds = begin_stage(stage.label);
    obs::Span stage_span(cluster_.recorder(), stage.label, "stage");
    Mail mail = cluster_.run_round_views(
        stage.label, inputs,
        [&stage](MachineContext& machine) {
          ChainReader r(machine.input());
          StageContext<In> ctx(machine, Codec<In>::decode(r));
          stage.body(ctx);
        },
        staged);
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
