#include "mpc/primitives.hpp"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "common/contracts.hpp"
#include "common/rng.hpp"

namespace mpcsd::mpc {

namespace {

/// Splits `records` into `machines` nearly equal chunks, serialized.
std::vector<Bytes> chunk_records(const std::vector<KeyValue>& records,
                                 std::size_t machines) {
  std::vector<Bytes> inputs;
  const std::size_t per = (records.size() + machines - 1) / std::max<std::size_t>(machines, 1);
  for (std::size_t i = 0; i < records.size(); i += std::max<std::size_t>(per, 1)) {
    const std::size_t hi = std::min(records.size(), i + per);
    ByteWriter w;
    w.reserve(sizeof(std::uint64_t) + (hi - i) * sizeof(KeyValue));
    w.put_vector(std::vector<KeyValue>(records.begin() + static_cast<std::ptrdiff_t>(i),
                                       records.begin() + static_cast<std::ptrdiff_t>(hi)));
    inputs.push_back(std::move(w).take());
  }
  if (inputs.empty()) {
    ByteWriter w;
    w.put_vector(std::vector<KeyValue>{});
    inputs.push_back(std::move(w).take());
  }
  return inputs;
}

bool kv_less(const KeyValue& a, const KeyValue& b) {
  if (a.key != b.key) return a.key < b.key;
  return a.value < b.value;
}

// Machine bodies of the primitives' rounds.  Each is capture-free: what it
// needs beyond its inbox arrives as the round's params (mpc/body.hpp).

/// sort:sample — samples each record with probability `rate`.
void sort_sample(MachineContext& ctx, const double& rate) {
  auto r = ctx.reader();
  const auto recs = r.get_vector<KeyValue>();
  std::vector<KeyValue> sample;
  for (const KeyValue& kv : recs) {
    if (ctx.rng().bernoulli(rate)) sample.push_back(kv);
  }
  ctx.charge_work(recs.size());
  ByteWriter w;
  w.put_vector(sample);
  ctx.emit(0, std::move(w).take());
}

/// sort:splitters — one coordinator picks `machines - 1` splitters.
void sort_splitters(MachineContext& ctx, const std::size_t& machines) {
  std::vector<KeyValue> sample;
  auto r = ctx.reader();
  while (!r.exhausted()) {
    const auto part = r.get_vector<KeyValue>();
    sample.insert(sample.end(), part.begin(), part.end());
  }
  std::sort(sample.begin(), sample.end(), kv_less);
  ctx.charge_work(sample.size() + 1);
  std::vector<KeyValue> picks;
  if (!sample.empty()) {
    for (std::size_t p = 1; p < machines; ++p) {
      picks.push_back(sample[p * sample.size() / machines]);
    }
  }
  ByteWriter w;
  w.put_vector(picks);
  ctx.emit(0, std::move(w).take());
}

/// sort:partition — routes each record to its splitter bucket.
void sort_partition(MachineContext& ctx, const std::size_t& machines) {
  auto r = ctx.reader();
  const auto splits = r.get_vector<KeyValue>();
  const auto recs = r.get_vector<KeyValue>();
  std::vector<std::vector<KeyValue>> parts(machines);
  for (const KeyValue& kv : recs) {
    const auto it = std::upper_bound(splits.begin(), splits.end(), kv, kv_less);
    parts[static_cast<std::size_t>(it - splits.begin())].push_back(kv);
  }
  ctx.charge_work(recs.size() * 2 + 1);
  for (std::size_t p = 0; p < machines; ++p) {
    if (parts[p].empty()) continue;
    ByteWriter w;
    w.put_vector(parts[p]);
    ctx.emit(static_cast<std::uint32_t>(p), std::move(w).take());
  }
}

/// sort:local — sorts one partition.
void sort_local(MachineContext& ctx) {
  std::vector<KeyValue> recs;
  auto r = ctx.reader();
  while (!r.exhausted()) {
    const auto part = r.get_vector<KeyValue>();
    recs.insert(recs.end(), part.begin(), part.end());
  }
  std::sort(recs.begin(), recs.end(), kv_less);
  ctx.charge_work(recs.size() + 1);
  ByteWriter w;
  w.put_vector(recs);
  // Mailbox id = machine id keeps partition order on the driver side.
  ctx.emit(static_cast<std::uint32_t>(ctx.machine_id()), std::move(w).take());
}

/// join:partition — hash-partitions one tagged chunk.
void join_partition(MachineContext& ctx, const std::size_t& machines) {
  auto r = ctx.reader();
  const auto tag = static_cast<std::uint8_t>(r.get<std::byte>());
  const auto recs = r.get_vector<KeyValue>();
  std::vector<std::vector<KeyValue>> parts(machines);
  for (const KeyValue& kv : recs) {
    parts[splitmix64(static_cast<std::uint64_t>(kv.key)) % machines].push_back(kv);
  }
  ctx.charge_work(recs.size() + 1);
  for (std::size_t p = 0; p < machines; ++p) {
    if (parts[p].empty()) continue;
    ByteWriter w;
    w.put<std::uint8_t>(tag);
    w.put_vector(parts[p]);
    ctx.emit(static_cast<std::uint32_t>(p), std::move(w).take());
  }
}

/// join:match — joins one hash partition.
void join_match(MachineContext& ctx) {
  std::vector<KeyValue> lefts;
  std::unordered_map<std::int64_t, std::int64_t> rights;
  auto r = ctx.reader();
  while (!r.exhausted()) {
    const auto tag = r.get<std::uint8_t>();
    const auto recs = r.get_vector<KeyValue>();
    if (tag == 0) {
      lefts.insert(lefts.end(), recs.begin(), recs.end());
    } else {
      for (const KeyValue& kv : recs) rights.emplace(kv.key, kv.value);
    }
  }
  std::vector<JoinedRecord> out;
  for (const KeyValue& kv : lefts) {
    if (const auto it = rights.find(kv.key); it != rights.end()) {
      out.push_back(JoinedRecord{kv.key, kv.value, it->second});
    }
  }
  ctx.charge_work(lefts.size() + rights.size() + 1);
  ByteWriter w;
  w.put<std::uint64_t>(out.size());
  for (const JoinedRecord& j : out) w.put(j);
  ctx.emit(0, std::move(w).take());
}

// Registered at static initialisation, before any worker forks.
const Body<MachineContext, double> kSortSample{&sort_sample};
const Body<MachineContext, std::size_t> kSortSplitters{&sort_splitters};
const Body<MachineContext, std::size_t> kSortPartition{&sort_partition};
const Body<MachineContext> kSortLocal{&sort_local};
const Body<MachineContext, std::size_t> kJoinPartition{&join_partition};
const Body<MachineContext> kJoinMatch{&join_match};

}  // namespace

SortResult mpc_sort(Cluster& cluster, std::vector<KeyValue> records,
                    std::size_t machines) {
  MPCSD_EXPECTS(machines >= 1);
  SortResult result;
  result.machines = machines;

  const double n = static_cast<double>(std::max<std::size_t>(records.size(), 2));
  const double rate =
      std::min(1.0, 8.0 * static_cast<double>(machines) * std::log(n) / n);

  // ---- Round 1: sample candidate splitters. ----
  const auto chunks = chunk_records(records, machines);
  const auto mail1 = cluster.run_round("sort:sample", chunks, kSortSample, rate);

  // ---- Round 2: one coordinator picks machines-1 splitters. ----
  const auto mail2 = cluster.run_round_views(
      "sort:splitters", {gather_view(mail1, 0)}, kSortSplitters, machines);
  // The driver reads the splitter broadcast back out of the routed mail —
  // never out of the machine body's address space — so the round behaves
  // identically under process isolation.
  std::vector<KeyValue> splitters;
  {
    const ByteChain broadcast = gather_view(mail2, 0);
    ChainReader r(broadcast);
    if (!r.exhausted()) splitters = r.get_vector<KeyValue>();
  }

  // ---- Round 3: partition records by splitter. ----
  // Each input is "splitter broadcast + original chunk": chain the two
  // fragments instead of materialising the concatenation per machine.
  ByteWriter splitter_msg;
  splitter_msg.put_vector(splitters);
  const Bytes splitter_bytes = std::move(splitter_msg).take();
  std::vector<ByteChain> round3_inputs(chunks.size());
  for (std::size_t i = 0; i < chunks.size(); ++i) {
    round3_inputs[i].add(ByteSpan(splitter_bytes));
    round3_inputs[i].add(ByteSpan(chunks[i]));
  }
  const auto mail3 = cluster.run_round_views("sort:partition", round3_inputs,
                                             kSortPartition, machines);

  // ---- Round 4: sort each partition locally; concatenation is sorted. ----
  std::vector<ByteChain> round4_inputs;
  for (std::size_t p = 0; p < machines; ++p) {
    round4_inputs.push_back(gather_view(mail3, static_cast<std::uint32_t>(p)));
  }
  const auto mail4 =
      cluster.run_round_views("sort:local", round4_inputs, kSortLocal);

  for (std::size_t p = 0; p < machines; ++p) {
    const ByteChain view = gather_view(mail4, static_cast<std::uint32_t>(p));
    ChainReader r(view);
    while (!r.exhausted()) {
      const auto part = r.get_vector<KeyValue>();
      result.records.insert(result.records.end(), part.begin(), part.end());
    }
  }
  MPCSD_ENSURES(result.records.size() == records.size());
  return result;
}

std::vector<JoinedRecord> mpc_hash_join(Cluster& cluster,
                                        const std::vector<KeyValue>& left,
                                        const std::vector<KeyValue>& right,
                                        std::size_t machines) {
  MPCSD_EXPECTS(machines >= 1);

  // ---- Round 1: hash-partition both sides (tagged mailboxes). ----
  auto tag_inputs = [&](const std::vector<KeyValue>& side, std::uint8_t tag) {
    auto chunks = chunk_records(side, machines);
    for (auto& c : chunks) {
      Bytes tagged;
      tagged.push_back(static_cast<std::byte>(tag));
      tagged.insert(tagged.end(), c.begin(), c.end());
      c = std::move(tagged);
    }
    return chunks;
  };
  std::vector<Bytes> inputs = tag_inputs(left, 0);
  const auto right_inputs = tag_inputs(right, 1);
  inputs.insert(inputs.end(), right_inputs.begin(), right_inputs.end());

  const auto mail1 =
      cluster.run_round("join:partition", inputs, kJoinPartition, machines);

  // ---- Round 2: per-partition hash join. ----
  std::vector<ByteChain> round2_inputs;
  for (std::size_t p = 0; p < machines; ++p) {
    round2_inputs.push_back(gather_view(mail1, static_cast<std::uint32_t>(p)));
  }
  const auto mail2 =
      cluster.run_round_views("join:match", round2_inputs, kJoinMatch);

  std::vector<JoinedRecord> joined;
  const ByteChain payload = gather_view(mail2, 0);
  ChainReader r(payload);
  while (!r.exhausted()) {
    const auto count = r.get<std::uint64_t>();
    for (std::uint64_t i = 0; i < count; ++i) joined.push_back(r.get<JoinedRecord>());
  }
  return joined;
}

std::vector<std::int64_t> position_map_round(Cluster& cluster, SymView s,
                                             SymView t, std::size_t machines) {
  std::vector<KeyValue> left;
  left.reserve(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    left.push_back(KeyValue{s[i], static_cast<std::int64_t>(i)});
  }
  std::vector<KeyValue> right;
  right.reserve(t.size());
  for (std::size_t j = 0; j < t.size(); ++j) {
    right.push_back(KeyValue{t[j], static_cast<std::int64_t>(j)});
  }
  std::vector<std::int64_t> positions(s.size(), -1);
  for (const JoinedRecord& j : mpc_hash_join(cluster, left, right, machines)) {
    positions[static_cast<std::size_t>(j.left_value)] = j.right_value;
  }
  return positions;
}

}  // namespace mpcsd::mpc
