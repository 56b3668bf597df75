#include "mpc/cluster.hpp"

#include <algorithm>
#include <bit>
#include <iterator>

#include "common/timer.hpp"

namespace mpcsd::mpc {

namespace {

/// Below this many envelopes a serial stable sort beats the radix router's
/// histogram setup.
constexpr std::size_t kRadixRouteMin = 512;
/// Minimum envelopes per router chunk, so tiny mails don't over-fork.
constexpr std::size_t kRouteChunkMin = 256;
/// Cap on per-pass router chunks: each chunk owns one histogram slice, and
/// the serial prefix walk costs chunks x buckets.
constexpr std::size_t kRouteChunkMax = 8;
/// Payload bytes that weigh like one extra envelope when balancing router
/// chunks.  Scatter moves are O(1) per envelope, but a machine that emitted
/// megabytes clusters its envelopes (and the cache lines their payload
/// headers own) into one chunk; weighting by bytes spreads that burst.
constexpr std::uint64_t kRouteBytesPerEnvelope = 256;
/// Destination bits resolved per radix pass (two passes cover uint32).
constexpr unsigned kRadixBits = 16;

/// Consecutive rounds using under 1/kArenaDecayFactor of the retained
/// arena capacity before the arenas are released (see maybe_decay_arenas).
constexpr std::size_t kArenaDecayRounds = 8;
constexpr std::size_t kArenaDecayFactor = 4;
/// Retained arena bytes always tolerated; decay never fires below this, so
/// small steady workloads keep their warm arenas.
constexpr std::size_t kArenaFloorBytes = std::size_t{1} << 16;

bool by_dest(const Envelope& a, const Envelope& b) { return a.dest < b.dest; }

}  // namespace

void MachineContext::emit(std::uint32_t dest, Bytes payload) {
  report_.output_bytes += payload.size();
  outbox_->push_back(Envelope{dest, std::move(payload)});
}

std::span<const Envelope> Mail::at(std::uint32_t dest) const noexcept {
  const auto lo = std::lower_bound(
      msgs_.begin(), msgs_.end(), dest,
      [](const Envelope& e, std::uint32_t d) { return e.dest < d; });
  auto hi = lo;
  while (hi != msgs_.end() && hi->dest == dest) ++hi;
  return std::span<const Envelope>(msgs_).subspan(
      static_cast<std::size_t>(lo - msgs_.begin()),
      static_cast<std::size_t>(hi - lo));
}

Cluster::Cluster(ClusterConfig config)
    : config_(config), pool_(std::make_shared<ThreadPool>(config.workers)) {
  backend_ = make_backend(config_.backend, pool_, config_.recorder);
}

const std::vector<ByteChain>& Cluster::wrap_inputs(
    const std::vector<Bytes>& inputs) {
  // The chain vector is an arena: fragment lists keep their capacity across
  // rounds.
  input_chains_.resize(inputs.size());
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    input_chains_[i].clear();
    input_chains_[i].add(ByteSpan(inputs[i]));
  }
  return input_chains_;
}

Mail Cluster::run_round(const std::string& label, const std::vector<Bytes>& inputs,
                        const Body<MachineContext>& body,
                        const RoundOptions& options) {
  return run_body(label, wrap_inputs(inputs), body.ref(), {}, options);
}

Mail Cluster::run_round_views(const std::string& label,
                              const std::vector<ByteChain>& inputs,
                              const Body<MachineContext>& body,
                              const RoundOptions& options) {
  return run_body(label, inputs, body.ref(), {}, options);
}

void Cluster::route_mail(std::size_t machines, std::vector<Envelope>& out) {
  std::size_t total = 0;
  std::uint32_t dest_or = 0;
  for (std::size_t i = 0; i < machines; ++i) {
    total += outboxes_[i].size();
    for (const Envelope& env : outboxes_[i]) dest_or |= env.dest;
  }
  out.clear();

  // Tiny mails: one flat move + serial stable sort beats histogram setup.
  if (total < kRadixRouteMin) {
    out.reserve(total);
    for (std::size_t i = 0; i < machines; ++i) {
      for (Envelope& env : outboxes_[i]) out.push_back(std::move(env));
    }
    std::stable_sort(out.begin(), out.end(), by_dest);
    return;
  }

  // Counting/radix bucket-by-destination.  Histograms are sized to the
  // bits destinations actually use, so a round with 64 mailboxes pays a
  // 64-bucket prefix walk, not a 65536-bucket one; dests past 16 bits get
  // a second (high-bits) pass — LSD radix, stable in both passes.
  const unsigned dest_bits =
      std::max(1U, static_cast<unsigned>(std::bit_width(dest_or)));
  const unsigned low_bits = std::min(dest_bits, kRadixBits);
  const std::size_t low_buckets = std::size_t{1} << low_bits;
  const std::uint32_t low_mask = static_cast<std::uint32_t>(low_buckets - 1);

  // Chunk machines by cost, not count: a machine's envelopes weigh their
  // count plus their payload bytes (already aggregated in reports_), so a
  // few machines with huge emissions no longer serialize onto one chunk.
  const std::size_t workers = pool_->worker_count();
  const std::size_t chunks = std::clamp<std::size_t>(
      std::min(workers, total / kRouteChunkMin), 1, kRouteChunkMax);
  std::vector<std::size_t> machine_bounds(chunks + 1, machines);
  machine_bounds[0] = 0;
  {
    std::uint64_t total_weight = 0;
    for (std::size_t i = 0; i < machines; ++i) {
      total_weight += outboxes_[i].size() +
                      reports_[i].output_bytes / kRouteBytesPerEnvelope;
    }
    std::uint64_t acc = 0;
    std::size_t next = 1;
    for (std::size_t i = 0; i < machines && next < chunks; ++i) {
      acc += outboxes_[i].size() +
             reports_[i].output_bytes / kRouteBytesPerEnvelope;
      while (next < chunks && acc * chunks >= next * total_weight) {
        machine_bounds[next++] = i + 1;
      }
    }
  }

  // Pass 1 histogram: per-chunk counts of the low destination bits.
  radix_counts_.assign(chunks * low_buckets, 0);
  pool_->parallel_for(
      chunks,
      [&](std::size_t c) {
        std::uint32_t* counts = radix_counts_.data() + c * low_buckets;
        for (std::size_t i = machine_bounds[c]; i < machine_bounds[c + 1]; ++i) {
          for (const Envelope& env : outboxes_[i]) ++counts[env.dest & low_mask];
        }
      },
      1);

  // Exclusive prefix in (bucket, chunk) order: bucket b's region holds
  // chunk 0's envelopes before chunk 1's, and each chunk scans its
  // machines in (machine id, emission index) order — exactly the global
  // stable order within every bucket.
  std::uint32_t running = 0;
  for (std::size_t b = 0; b < low_buckets; ++b) {
    for (std::size_t c = 0; c < chunks; ++c) {
      std::uint32_t& slot = radix_counts_[c * low_buckets + b];
      const std::uint32_t count = slot;
      slot = running;
      running += count;
    }
  }

  const bool two_pass = dest_bits > kRadixBits;
  std::vector<Envelope>& pass1_out = two_pass ? route_scratch_ : out;
  pass1_out.resize(total);
  pool_->parallel_for(
      chunks,
      [&](std::size_t c) {
        std::uint32_t* offsets = radix_counts_.data() + c * low_buckets;
        for (std::size_t i = machine_bounds[c]; i < machine_bounds[c + 1]; ++i) {
          for (Envelope& env : outboxes_[i]) {
            pass1_out[offsets[env.dest & low_mask]++] = std::move(env);
          }
        }
      },
      1);
  if (!two_pass) return;

  // Pass 2: scatter by the high bits; stability over the pass-1 order
  // completes the LSD radix sort.  Chunks are equal envelope ranges of the
  // flat intermediate — payload skew was dissolved by pass 1.
  const std::size_t high_buckets = std::size_t{1} << (dest_bits - kRadixBits);
  radix_counts_.assign(chunks * high_buckets, 0);
  std::vector<std::size_t> bounds(chunks + 1);
  for (std::size_t c = 0; c <= chunks; ++c) bounds[c] = c * total / chunks;
  pool_->parallel_for(
      chunks,
      [&](std::size_t c) {
        std::uint32_t* counts = radix_counts_.data() + c * high_buckets;
        for (std::size_t i = bounds[c]; i < bounds[c + 1]; ++i) {
          ++counts[route_scratch_[i].dest >> kRadixBits];
        }
      },
      1);
  running = 0;
  for (std::size_t b = 0; b < high_buckets; ++b) {
    for (std::size_t c = 0; c < chunks; ++c) {
      std::uint32_t& slot = radix_counts_[c * high_buckets + b];
      const std::uint32_t count = slot;
      slot = running;
      running += count;
    }
  }
  out.resize(total);
  pool_->parallel_for(
      chunks,
      [&](std::size_t c) {
        std::uint32_t* offsets = radix_counts_.data() + c * high_buckets;
        for (std::size_t i = bounds[c]; i < bounds[c + 1]; ++i) {
          Envelope& env = route_scratch_[i];
          out[offsets[env.dest >> kRadixBits]++] = std::move(env);
        }
      },
      1);
  route_scratch_.clear();
}

Mail Cluster::run_body(const std::string& label,
                       const std::vector<ByteChain>& inputs, const BodyRef& body,
                       ByteSpan params, const RoundOptions& options) {
  const std::size_t round = round_index_++;
  const std::size_t machines = inputs.size();
  // Observability span covering the whole round (machine bodies + routing).
  // Inert (no strings, no clock reads) unless a recorder with sinks is
  // attached, so the metered path is unchanged when detached.
  obs::Span round_span(config_.recorder, label, "round");
  if (options.machine_memory_limits != nullptr &&
      options.machine_memory_limits->size() != machines) {
    throw std::invalid_argument(
        "round '" + label + "': " +
        std::to_string(options.machine_memory_limits->size()) +
        " per-machine memory limits for " + std::to_string(machines) +
        " machines");
  }

  // Arena slots: report entries reset, outbox slots keep their capacity.
  reports_.assign(machines, MachineReport{});
  if (outboxes_.size() < machines) outboxes_.resize(machines);

  RoundWork work;
  work.round = round;
  work.seed = config_.seed;
  // Grain: ~8 chunks per worker keeps balancing slack while tiny machine
  // bodies stop paying one contended RMW each.
  work.grain = std::clamp<std::size_t>(
      machines / (pool_->worker_count() * 8 + 1), 1, 64);
  work.machines = machines;
  work.inputs = &inputs;
  work.body = body;
  work.params = params;
  work.outboxes = &outboxes_;
  work.reports = &reports_;
  Stopwatch wall;
  backend_->execute(work);
  const double wall_seconds = wall.seconds();

  const AuditOptions& audit = config_.audit;
  if (audit.enabled) {
    ++audit_report_.rounds_audited;
    const BodyEntry::Params decoded = body.entry.decode(params);
    audit_replay(label, round, inputs, body.entry, decoded.get());
    if (audit.inject_after_round) audit_inject(round);
  }

  RoundReport rr;
  rr.label = label;
  rr.machines = machines;
  rr.wall_seconds = wall_seconds;
  rr.driver_seconds = options.driver_seconds;
  for (std::size_t i = 0; i < machines; ++i) {
    const MachineReport& m = reports_[i];
    rr.max_machine_memory = std::max(rr.max_machine_memory, m.memory_footprint());
    rr.total_comm_bytes += m.output_bytes;
    rr.total_input_bytes += m.input_bytes;
    rr.total_work += m.work;
    rr.max_machine_work = std::max(rr.max_machine_work, m.work);
    const std::uint64_t limit = options.machine_memory_limits != nullptr
                                    ? (*options.machine_memory_limits)[i]
                                    : config_.memory_limit_bytes;
    if (m.memory_footprint() > limit) {
      ++rr.memory_violations;
      if (config_.strict_memory) {
        throw MemoryLimitExceeded(
            "machine " + std::to_string(i) + " in round '" + label + "' used " +
            std::to_string(m.memory_footprint()) + "B > limit " +
            std::to_string(limit) + "B");
      }
    }
  }
  trace_.add_round(rr);
  if (options.machine_reports != nullptr) {
    *options.machine_reports = reports_;
  }

  // Deterministic routing: envelopes move (payloads are never copied)
  // straight from the outbox arenas into destination buckets — within a
  // mailbox the order stays (machine id, emission index), exactly as the
  // old per-mailbox vectors were filled.  Large mails scatter in parallel
  // on the worker pool.
  Mail mail;
  route_mail(machines, mail.msgs_);
  if (audit.enabled) {
    audit_verify_comm(label, round, mail, rr.total_comm_bytes);
  }
  if (round_span) {
    round_span.arg("machines", static_cast<double>(rr.machines))
        .arg("total_work", static_cast<double>(rr.total_work))
        .arg("total_comm_bytes", static_cast<double>(rr.total_comm_bytes))
        .arg("max_machine_memory", static_cast<double>(rr.max_machine_memory))
        .arg("memory_violations", static_cast<double>(rr.memory_violations));
    round_span.finish();
    obs::Recorder& rec = *config_.recorder;
    rec.counter("mpc.comm_bytes", "mpc", static_cast<double>(rr.total_comm_bytes));
    rec.counter("mpc.work", "mpc", static_cast<double>(rr.total_work));
    const PoolCounters pc = pool_->counters();
    rec.counter("pool.parallel_for_calls", "pool",
                static_cast<double>(pc.parallel_for_calls));
    rec.counter("pool.inline_calls", "pool", static_cast<double>(pc.inline_calls));
    rec.counter("pool.tasks_enqueued", "pool",
                static_cast<double>(pc.tasks_enqueued));
    rec.counter("pool.indices_claimed", "pool",
                static_cast<double>(pc.indices_claimed));
    rec.counter("pool.peak_queue_depth", "pool",
                static_cast<double>(pc.peak_queue_depth));
    // Per-transport counters (cumulative, like the pool's): what one
    // "frame" means per backend is documented in docs/BACKENDS.md.
    const TransportCounters& tc = backend_->transport().counters();
    rec.counter("transport.frames_sent", "transport",
                static_cast<double>(tc.frames_sent));
    rec.counter("transport.frames_received", "transport",
                static_cast<double>(tc.frames_received));
    rec.counter("transport.bytes_sent", "transport",
                static_cast<double>(tc.bytes_sent));
    rec.counter("transport.bytes_received", "transport",
                static_cast<double>(tc.bytes_received));
    rec.counter("transport.flushes", "transport",
                static_cast<double>(tc.flushes));
    rec.counter("transport.barrier_waits", "transport",
                static_cast<double>(tc.barrier_waits));
    rec.counter("transport.forks", "transport", static_cast<double>(tc.forks));
  }
  maybe_decay_arenas(machines, mail.msgs_.size());
  return mail;
}

std::size_t Cluster::arena_footprint_bytes() const noexcept {
  std::size_t total = route_scratch_.capacity() * sizeof(Envelope) +
                      radix_counts_.capacity() * sizeof(std::uint32_t) +
                      outboxes_.capacity() * sizeof(std::vector<Envelope>) +
                      reports_.capacity() * sizeof(MachineReport) +
                      input_chains_.capacity() * sizeof(ByteChain);
  for (const std::vector<Envelope>& box : outboxes_) {
    total += box.capacity() * sizeof(Envelope);
  }
  for (const ByteChain& chain : input_chains_) {
    total += chain.parts().capacity() * sizeof(ByteSpan);
  }
  return total;
}

void Cluster::maybe_decay_arenas(std::size_t machines, std::size_t envelopes) {
  // Retained envelope-slot capacity vs what this round actually used: the
  // envelope structs pinned by the outbox slots and the two-pass scratch
  // dominate after a skewed burst (payload bytes themselves are moved out
  // to the caller with the Mail).
  std::size_t retained = route_scratch_.capacity();
  for (const std::vector<Envelope>& box : outboxes_) retained += box.capacity();
  const std::size_t need = std::max(envelopes, machines);
  if (retained * sizeof(Envelope) <= kArenaFloorBytes ||
      retained <= kArenaDecayFactor * need) {
    arena_low_rounds_ = 0;
    return;
  }
  if (++arena_low_rounds_ < kArenaDecayRounds) return;
  arena_low_rounds_ = 0;
  // Sustained low usage: release everything and let the following rounds
  // regrow to their own high-water mark.  Results are unaffected — only
  // the next round's first allocations.
  outboxes_.clear();
  outboxes_.shrink_to_fit();
  route_scratch_.clear();
  route_scratch_.shrink_to_fit();
  radix_counts_.clear();
  radix_counts_.shrink_to_fit();
  input_chains_.clear();
  input_chains_.shrink_to_fit();
}

ByteChain gather_view(const Mail& mail, std::uint32_t dest) {
  ByteChain chain;
  for (const Envelope& env : mail.at(dest)) chain.add(ByteSpan(env.payload));
  return chain;
}

}  // namespace mpcsd::mpc
