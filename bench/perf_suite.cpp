// Machine-readable performance regression suite (BENCH_PR1.json +
// BENCH_PR3.json + BENCH_PR5.json + BENCH_PR6.json + BENCH_PR7.json +
// BENCH_PR8.json).
//
// BENCH_PR1 — one JSON record per kernel/routing benchmark:
//   { "bench": ..., "n": ..., "wall_seconds": ..., "work": ..., "bytes_moved": ... }
//
//  * edit_unit_{scalar,fast}     — the unit-distance kernel (full DP) that
//    round-1 machines run per (block, window) pair; the fast variant must
//    be >= 3x the scalar at n = 2000 (hard-checked, non-smoke runs).
//  * edit_bounded_{scalar,fast}  — the capped kernel used by the small/large
//    distance pipelines on near pairs.
//  * ulam_combine_{copy,view}    — materialising the combine machine's inbox
//    from round-1 mail: seed semantics concatenate every payload into one
//    buffer (bytes_moved = inbox size); the zero-copy chain reads the
//    envelopes in place (bytes_moved = 0).
//  * ulam_e2e                    — whole Theorem 4 solve; work and
//    bytes_moved come from the execution trace.
//
// BENCH_PR3 — batch throughput: queries/sec of `core::distance_batch`
// against the same B queries solved one `*_distance_mpc` call at a time:
//   { "bench": "ulam_seq"|"ulam_batch"|"edit_seq"|"edit_batch",
//     "mode": "seq"|"parallel"|"throughput", "n": ..., "batch": B,
//     "wall_seconds": ..., "qps": ..., "rounds": ..., "passes": ...,
//     "ratio_vs_seq": ... }
// Every batch record carries its BatchMode and the explicit batch-vs-seq
// throughput ratio at the same (algorithm, n, B) point.
//
// Hard gates:
//  * every tier: a kParallelGuess (and Ulam) batch uses exactly 2 simulated
//    rounds; a kThroughput batch uses 2 rounds per escalation pass (even).
//  * non-smoke, any host: edit kThroughput must hold >= 0.5x the sequential
//    early-exit solver's qps at the largest B — escalation is a *work*
//    reduction, so this holds even single-core (the PR2 parallel-guess mode
//    was ~300x slower here; the ratio is recorded for both modes).
//  * non-smoke, workers > 1: each algorithm's batch must beat sequential
//    (ratio >= 1.0x) at the largest B — the cross-query parallelism win.
//  * non-smoke, workers >= 4: ulam_batch must clear >= 1.5x at B=8.
//
// BENCH_PR5 — the same numbers through the observability spine: every
// record re-emits as a span into an AggregateSink whose rollup is written
// as BENCH_PR5.json (--out3).  All gated measurements run with a sink-less
// recorder wired through every layer — pricing the disabled recorder on the
// hot path — and `--trace-out <file>` additionally captures one traced
// batch run as a Chrome trace-event artifact.
//
// BENCH_PR6 (--out4) — ISA kernel throughput and mail routing:
//  * myers_{scalar,avx2,avx512} — the multi-word Myers kernel forced to
//    each ISA level the host supports, same inputs, distances and work
//    meters cross-checked identical.  Hard gate (non-smoke, AVX2 host):
//    the AVX2 kernel must be >= 2x the scalar kernel at n = 2000.
//  * mail_route_{stable,radix}  — the round-mail router: a flat move +
//    global std::stable_sort baseline vs the cluster's counting/radix
//    scatter, byte-identical output re-verified in-bench.
//
// BENCH_PR7 (--out5) — execution backends: the same batch workloads run
// with machine bodies on the in-process thread pool vs forked worker
// processes (shared-memory result arenas).  Distances and trace structural
// hashes are cross-checked identical in-bench — the backend may only move
// wall clock.  Hard gate (non-smoke): process-backend wall <= 2x the
// thread backend on the edit and ulam batch workloads at n = 2000.
//
// BENCH_PR8 (--out6) — the cost-model query router: one skewed
// near-duplicate batch (n = 2000, B = 32; 75% of pairs within edit
// distance 8, the rest ~n/8 edits away) solved in kThroughput mode with
// the router off vs auto.  Answers are cross-checked per query (a retired
// query is exact, the ladder certifies (1 + eps): exact <= auto <= off)
// and the decision counts
// (examined / retired_seq / probed / lower_bounded / to_plan) come from a
// sinked AggregateSink re-run so the gated walls still price the disabled
// recorder.  Hard gate (non-smoke): router-auto must hold >= 3x the
// router-off qps on this workload — the output-sensitive portfolio's
// reason to exist.
//
// `--smoke` runs tiny sizes once, checks the emitted JSON parses, and skips
// the speedup gates — registered in ctest so the suite itself cannot rot.
// A smoke run writes every output not named on the command line under the
// build directory of this binary, never over the committed BENCH_PR*.json.
// In every mode an output path that cannot be written fails the run
// (`FAIL: cannot write <path>`, exit 1).
// `--full` adds the expensive points (ulam n=4096 with B up to 64, edit
// kParallelGuess at n=1024).
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/cpu.hpp"
#include "common/thread_pool.hpp"
#include "core/batch.hpp"
#include "core/router.hpp"
#include "core/workload.hpp"
#include "edit_mpc/solver.hpp"
#include "mpc/backend.hpp"
#include "mpc/cluster.hpp"
#include "mpc/plan.hpp"
#include "obs/recorder.hpp"
#include "obs/sinks.hpp"
#include "seq/combine.hpp"
#include "seq/edit_distance.hpp"
#include "seq/edit_distance_fast.hpp"
#include "seq/edit_distance_os.hpp"
#include "seq/myers.hpp"
#include "ulam_mpc/solver.hpp"

namespace {

using namespace mpcsd;

struct Record {
  std::string bench;
  std::int64_t n = 0;
  double wall_seconds = 0.0;
  std::uint64_t work = 0;
  std::uint64_t bytes_moved = 0;
};

/// The recorder wired through every measured solver/batch run.  It carries
/// no sink during the gated measurements — which is exactly the point: the
/// ratio gates price the *disabled* recorder on the hot path, proving
/// instrumented builds cost nothing when tracing is off.  Sinks are
/// attached only after the gates, for the BENCH_PR5 aggregate and the
/// optional Chrome artifact.
obs::Recorder bench_recorder;

/// Minimum wall time over `reps` runs of `f` (first run warms caches).
template <typename F>
double time_best(F&& f, int reps) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    f();
    const auto t1 = std::chrono::steady_clock::now();
    best = std::min(best, std::chrono::duration<double>(t1 - t0).count());
  }
  return best;
}

/// The write_*json helpers return false when the file cannot be written.
[[nodiscard]] bool write_json(const std::vector<Record>& records,
                              const std::string& path) {
  std::ofstream out(path);
  out << "[\n";
  for (std::size_t i = 0; i < records.size(); ++i) {
    const Record& r = records[i];
    out << "  {\"bench\": \"" << r.bench << "\", \"n\": " << r.n
        << ", \"wall_seconds\": " << r.wall_seconds << ", \"work\": " << r.work
        << ", \"bytes_moved\": " << r.bytes_moved << "}"
        << (i + 1 < records.size() ? "," : "") << "\n";
  }
  out << "]\n";
  out.close();
  return !out.fail();
}

/// Just enough validation for the smoke gate: the file must exist, be a
/// bracket-balanced JSON array, and contain one "bench" key per record.
bool json_well_formed(const std::string& path, std::size_t expected_records) {
  std::ifstream in(path);
  if (!in) return false;
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string text = ss.str();
  long depth = 0;
  std::size_t keys = 0;
  for (std::size_t i = 0; i < text.size(); ++i) {
    if (text[i] == '[' || text[i] == '{') ++depth;
    if (text[i] == ']' || text[i] == '}') --depth;
    if (depth < 0) return false;
    if (text.compare(i, 8, "\"bench\":") == 0) ++keys;
  }
  return depth == 0 && keys == expected_records && !text.empty() &&
         text.front() == '[';
}

double record_wall(const std::vector<Record>& records, const std::string& bench,
                   std::int64_t n) {
  for (const Record& r : records) {
    if (r.bench == bench && r.n == n) return r.wall_seconds;
  }
  return -1.0;
}

// ---- BENCH_PR3: batch throughput ----

struct BatchRecord {
  std::string bench;
  std::string mode;  // "seq" | "parallel" | "throughput"
  std::int64_t n = 0;
  std::size_t batch = 0;
  double wall_seconds = 0.0;
  double qps = 0.0;
  std::size_t rounds = 0;
  std::size_t passes = 0;
  double ratio_vs_seq = 0.0;  // batch qps / seq qps at the same point
};

template <typename F>
double wall_of(F&& f) {
  const auto t0 = std::chrono::steady_clock::now();
  f();
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t1 - t0).count();
}

/// Median wall time over `reps` runs.  The batch-vs-seq ratio gates compare
/// two wall clocks, so one scheduler hiccup on either side could flip a
/// gate; the median of 3 absorbs a single outlier run.  Model-quantity
/// gates (rounds, passes) stay single-shot — they are deterministic.
template <typename F>
double wall_median(F&& f, int reps) {
  std::vector<double> walls;
  walls.reserve(static_cast<std::size_t>(reps));
  for (int r = 0; r < reps; ++r) walls.push_back(wall_of(f));
  std::sort(walls.begin(), walls.end());
  return walls[walls.size() / 2];
}

[[nodiscard]] bool write_batch_json(const std::vector<BatchRecord>& records,
                                    const std::string& path) {
  std::ofstream out(path);
  out << "[\n";
  for (std::size_t i = 0; i < records.size(); ++i) {
    const BatchRecord& r = records[i];
    out << "  {\"bench\": \"" << r.bench << "\", \"mode\": \"" << r.mode
        << "\", \"n\": " << r.n << ", \"batch\": " << r.batch
        << ", \"wall_seconds\": " << r.wall_seconds << ", \"qps\": " << r.qps
        << ", \"rounds\": " << r.rounds << ", \"passes\": " << r.passes
        << ", \"ratio_vs_seq\": " << r.ratio_vs_seq << "}"
        << (i + 1 < records.size() ? "," : "") << "\n";
  }
  out << "]\n";
  out.close();
  return !out.fail();
}

std::vector<core::BatchQuery> make_batch_queries(std::size_t batch,
                                                 std::int64_t n, bool ulam) {
  std::vector<core::BatchQuery> queries;
  for (std::size_t q = 0; q < batch; ++q) {
    core::BatchQuery query;
    if (ulam) {
      query.s = core::random_permutation(n, 1000 + 2 * q);
      query.t = core::plant_edits(query.s, n / 16, 1001 + 2 * q, true).text;
    } else {
      query.s = core::random_string(n, 8, 2000 + 2 * q);
      query.t = core::plant_edits(query.s, n / 16, 2001 + 2 * q, false).text;
    }
    queries.push_back(std::move(query));
  }
  return queries;
}

/// Sequential baseline: B independent `*_distance_mpc` calls.
double bench_seq_point(std::vector<BatchRecord>& records, bool ulam,
                       std::int64_t n, std::size_t b, int reps) {
  const auto queries = make_batch_queries(b, n, ulam);
  BatchRecord seq;
  seq.bench = ulam ? "ulam_seq" : "edit_seq";
  seq.mode = "seq";
  seq.n = n;
  seq.batch = b;
  std::size_t seq_rounds = 0;
  seq.wall_seconds = wall_median(
      [&] {
        for (const auto& query : queries) {
          if (ulam) {
            ulam_mpc::UlamMpcParams params;
            params.seed = 13;
            params.recorder = &bench_recorder;
            seq_rounds = ulam_mpc::ulam_distance_mpc(query.s, query.t, params)
                             .trace.round_count();
          } else {
            edit_mpc::EditMpcParams params;
            params.recorder = &bench_recorder;
            seq_rounds = edit_mpc::edit_distance_mpc(query.s, query.t, params)
                             .trace.round_count();
          }
        }
      },
      reps);
  seq.qps = double(b) / seq.wall_seconds;
  seq.rounds = seq_rounds;
  records.push_back(seq);
  return seq.qps;
}

/// One `distance_batch` execution in `mode`; records the batch-vs-seq qps
/// ratio.  Returns false on a round-shape violation: a kParallelGuess (or
/// Ulam) batch must share exactly 2 rounds, a kThroughput batch exactly
/// 2 rounds per escalation pass.
bool bench_batch_point(std::vector<BatchRecord>& records, bool ulam,
                       core::BatchMode mode, std::int64_t n, std::size_t b,
                       double seq_qps, int reps) {
  const auto queries = make_batch_queries(b, n, ulam);
  BatchRecord bat;
  bat.bench = ulam ? "ulam_batch" : "edit_batch";
  bat.mode = mode == core::BatchMode::kThroughput ? "throughput" : "parallel";
  bat.n = n;
  bat.batch = b;
  core::BatchResult result;
  bat.wall_seconds = wall_median(
      [&] {
        core::BatchRequest request;
        request.algorithm =
            ulam ? core::BatchAlgorithm::kUlam : core::BatchAlgorithm::kEdit;
        request.mode = mode;
        request.ulam.seed = 13;
        request.recorder = &bench_recorder;
        request.queries = queries;
        result = core::distance_batch(request);
      },
      reps);
  bat.qps = double(b) / bat.wall_seconds;
  bat.rounds = result.trace.round_count();
  bat.passes = result.passes;
  bat.ratio_vs_seq = seq_qps > 0.0 ? bat.qps / seq_qps : 0.0;
  records.push_back(bat);

  if (ulam || mode == core::BatchMode::kParallelGuess) {
    return bat.rounds == 2;
  }
  return bat.rounds == 2 * bat.passes && bat.passes >= 1;
}

double batch_ratio(const std::vector<BatchRecord>& records,
                   const std::string& bench, const std::string& mode,
                   std::int64_t n, std::size_t b) {
  for (const BatchRecord& r : records) {
    if (r.bench == bench && r.mode == mode && r.n == n && r.batch == b) {
      return r.ratio_vs_seq;
    }
  }
  return -1.0;
}

// ---- BENCH_PR8: the query router on a skewed near-duplicate batch ----

struct RouterRecord {
  std::string bench;  // "edit_router_off" | "edit_router_auto"
  std::int64_t n = 0;
  std::size_t batch = 0;
  double wall_seconds = 0.0;
  double qps = 0.0;
  std::size_t rounds = 0;
  std::size_t passes = 0;
  double ratio_vs_off = 0.0;  // this record's qps / the router-off qps
  // Router decision counts from the sinked re-run (zero for router-off).
  std::uint64_t examined = 0;
  std::uint64_t retired_seq = 0;
  std::uint64_t probed = 0;
  std::uint64_t lower_bounded = 0;
  std::uint64_t to_plan = 0;
};

[[nodiscard]] bool write_router_json(const std::vector<RouterRecord>& records,
                                     const std::string& path) {
  std::ofstream out(path);
  out << "[\n";
  for (std::size_t i = 0; i < records.size(); ++i) {
    const RouterRecord& r = records[i];
    out << "  {\"bench\": \"" << r.bench << "\", \"mode\": \"throughput\""
        << ", \"n\": " << r.n << ", \"batch\": " << r.batch
        << ", \"wall_seconds\": " << r.wall_seconds << ", \"qps\": " << r.qps
        << ", \"rounds\": " << r.rounds << ", \"passes\": " << r.passes
        << ", \"ratio_vs_off\": " << r.ratio_vs_off
        << ", \"router_examined\": " << r.examined
        << ", \"router_retired_seq\": " << r.retired_seq
        << ", \"router_probed\": " << r.probed
        << ", \"router_lower_bounded\": " << r.lower_bounded
        << ", \"router_to_plan\": " << r.to_plan << "}"
        << (i + 1 < records.size() ? "," : "") << "\n";
  }
  out << "]\n";
  out.close();
  return !out.fail();
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  bool full = false;
  std::string out_path;
  std::string out2_path;
  std::string out3_path;
  std::string out4_path;
  std::string out5_path;
  std::string out6_path;
  std::string trace_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strcmp(argv[i], "--full") == 0) full = true;
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) out_path = argv[++i];
    if (std::strcmp(argv[i], "--out2") == 0 && i + 1 < argc) out2_path = argv[++i];
    if (std::strcmp(argv[i], "--out3") == 0 && i + 1 < argc) out3_path = argv[++i];
    if (std::strcmp(argv[i], "--out4") == 0 && i + 1 < argc) out4_path = argv[++i];
    if (std::strcmp(argv[i], "--out5") == 0 && i + 1 < argc) out5_path = argv[++i];
    if (std::strcmp(argv[i], "--out6") == 0 && i + 1 < argc) out6_path = argv[++i];
    if (std::strcmp(argv[i], "--trace-out") == 0 && i + 1 < argc) {
      trace_path = argv[++i];
    }
  }
  if (smoke) full = false;
  // Unnamed outputs default to the committed BENCH_PR*.json in the current
  // directory, except in smoke runs, whose tiny-size numbers land under
  // this binary's build directory instead of overwriting committed data.
  const std::string default_dir =
      smoke ? std::string(MPCSD_PERF_SUITE_BINARY_DIR) + "/" : std::string();
  const auto default_to = [&](std::string& path, const char* name) {
    if (path.empty()) path = default_dir + name;
  };
  default_to(out_path, "BENCH_PR1.json");
  default_to(out2_path, "BENCH_PR3.json");
  default_to(out3_path, "BENCH_PR5.json");
  default_to(out4_path, "BENCH_PR6.json");
  default_to(out5_path, "BENCH_PR7.json");
  default_to(out6_path, "BENCH_PR8.json");
  // Wall-clock ratio gates compare medians of 3 runs (see wall_median);
  // smoke keeps 1 rep — it never evaluates the ratio gates.
  const int wall_reps = smoke ? 1 : 3;

  const int reps = smoke ? 1 : 5;
  const std::vector<std::int64_t> kernel_sizes =
      smoke ? std::vector<std::int64_t>{64, 128}
            : std::vector<std::int64_t>{256, 512, 1024, 2000};
  std::vector<Record> records;

  // ---- Unit-distance kernel: scalar full DP vs dispatched fast path. ----
  for (const std::int64_t n : kernel_sizes) {
    const auto a = core::random_string(n, 4, 1);
    const auto b = core::random_string(n, 4, 2);
    std::int64_t d_scalar = 0;
    std::int64_t d_fast = 0;
    Record scalar{"edit_unit_scalar", n};
    scalar.wall_seconds =
        time_best([&] { d_scalar = seq::edit_distance(a, b); }, reps);
    seq::edit_distance(a, b, &scalar.work);
    records.push_back(scalar);

    Record fast{"edit_unit_fast", n};
    fast.wall_seconds =
        time_best([&] { d_fast = seq::edit_distance_fast(a, b); }, reps);
    seq::edit_distance_fast(a, b, &fast.work);
    records.push_back(fast);
    if (d_scalar != d_fast) {
      std::fprintf(stderr, "FATAL: kernel disagreement at n=%lld: %lld vs %lld\n",
                   static_cast<long long>(n), static_cast<long long>(d_scalar),
                   static_cast<long long>(d_fast));
      return 1;
    }
  }

  // ---- Capped kernel on near pairs (the pipelines' censoring workhorse). ----
  for (const std::int64_t n : kernel_sizes) {
    const auto a = core::random_string(n, 4, 1);
    const auto b = core::plant_edits(a, std::max<std::int64_t>(4, n / 8), 3, false).text;
    const std::int64_t limit = n;
    Record scalar{"edit_bounded_scalar", n};
    scalar.wall_seconds = time_best(
        [&] { (void)seq::edit_distance_bounded(a, b, limit); }, reps);
    seq::edit_distance_bounded(a, b, limit, &scalar.work);
    records.push_back(scalar);

    Record fast{"edit_bounded_fast", n};
    fast.wall_seconds = time_best(
        [&] { (void)seq::edit_distance_bounded_fast(a, b, limit); }, reps);
    seq::edit_distance_bounded_fast(a, b, limit, &fast.work);
    records.push_back(fast);
  }

  // ---- Combine-inbox routing: concatenate-and-copy vs zero-copy chain. ----
  // The emit round runs on the plan layer (typed stage + channel, the same
  // path every library driver uses); the `Codec<std::vector<seq::Tuple>>`
  // wire format is byte-identical to the old hand-rolled `write_tuples`
  // emission.  The copy measurement materialises the inbox through
  // `ByteChain::to_bytes` — the retired copying-gather semantics.
  {
    const std::size_t machines = smoke ? 4 : 64;
    const std::size_t tuples_per_machine = smoke ? 16 : 512;
    constexpr mpc::Channel<std::vector<seq::Tuple>> kInbox{0, "inbox"};
    mpc::Driver driver(
        mpc::Plan{"perf:combine-inbox",
                  {{"perf:emit", "machine id (sharded input)", "inbox"}}},
        {});
    const mpc::Stage<std::uint32_t> emit_stage{
        "perf:emit", [&](mpc::StageContext<std::uint32_t>& ctx) {
          std::vector<seq::Tuple> tuples(tuples_per_machine);
          for (std::size_t t = 0; t < tuples.size(); ++t) {
            tuples[t] = seq::Tuple{static_cast<std::int64_t>(t),
                                   static_cast<std::int64_t>(t + 8),
                                   static_cast<std::int64_t>(t),
                                   static_cast<std::int64_t>(t + 8), 1};
          }
          ctx.send(kInbox, tuples);
        }};
    std::vector<std::uint32_t> ids(machines);
    for (std::size_t i = 0; i < machines; ++i) ids[i] = static_cast<std::uint32_t>(i);
    const auto mail = driver.run(emit_stage, mpc::Driver::shard(ids));
    driver.finish();
    const std::int64_t total_tuples =
        static_cast<std::int64_t>(machines * tuples_per_machine);

    std::size_t parsed = 0;
    Record copy{"ulam_combine_copy", total_tuples};
    copy.wall_seconds = time_best(
        [&] {
          // seed semantics: memcpy every payload into one flat buffer
          const Bytes inbox = mpc::gather_view(mail, kInbox.mailbox).to_bytes();
          parsed = seq::read_all_tuples(inbox).size();
        },
        reps);
    copy.bytes_moved = mpc::gather_view(mail, kInbox.mailbox).to_bytes().size();
    records.push_back(copy);

    Record view{"ulam_combine_view", total_tuples};
    view.wall_seconds = time_best(
        [&] {
          const ByteChain inbox = mpc::gather_view(mail, kInbox.mailbox);
          parsed = seq::read_all_tuples(inbox).size();
        },
        reps);
    view.bytes_moved = 0;
    records.push_back(view);
    if (parsed != machines * tuples_per_machine) {
      std::fprintf(stderr, "FATAL: combine inbox parsed %zu tuples, expected %zu\n",
                   parsed, machines * tuples_per_machine);
      return 1;
    }
  }

  // ---- End-to-end Theorem 4 solve. ----
  {
    const std::int64_t n = smoke ? 256 : 4096;
    const auto s = core::random_permutation(n, 11);
    const auto t = core::plant_edits(s, n / 16, 12, true).text;
    ulam_mpc::UlamMpcParams params;
    params.seed = 13;
    params.recorder = &bench_recorder;
    Record e2e{"ulam_e2e", n};
    ulam_mpc::UlamMpcResult result;
    e2e.wall_seconds = time_best(
        [&] { result = ulam_mpc::ulam_distance_mpc(s, SymView(t), params); },
        smoke ? 1 : 3);
    e2e.work = result.trace.total_work();
    e2e.bytes_moved = result.trace.total_comm_bytes();
    records.push_back(e2e);
  }

  // ---- BENCH_PR6: Myers kernel throughput per ISA level. ----
  // The same (pattern, text) pair runs through the blocked kernel forced to
  // every level the host supports; distances and work meters must agree
  // bit for bit (ISA dispatch is results- and metering-invisible), only
  // wall time may differ.
  std::vector<Record> isa_records;
  {
    const std::vector<std::int64_t> isa_sizes =
        smoke ? std::vector<std::int64_t>{128}
              : std::vector<std::int64_t>{512, 2000, 8192};
    for (const std::int64_t n : isa_sizes) {
      const auto a = core::random_string(n, 8, 71);
      const auto b = core::plant_edits(a, n / 16, 72, false).text;
      force_isa(Isa::kScalar);
      const std::int64_t d_ref = seq::edit_distance_myers(a, b);
      std::uint64_t work_ref = 0;
      seq::edit_distance_myers(a, b, &work_ref);
      for (const Isa level : {Isa::kScalar, Isa::kAvx2, Isa::kAvx512}) {
        if (force_isa(level) != level) continue;  // host lacks this level
        std::int64_t d = 0;
        Record r{std::string("myers_") + isa_name(level), n};
        r.wall_seconds =
            time_best([&] { d = seq::edit_distance_myers(a, b); }, reps);
        seq::edit_distance_myers(a, b, &r.work);
        isa_records.push_back(r);
        if (d != d_ref || r.work != work_ref) {
          std::fprintf(stderr,
                       "FATAL: %s kernel diverged at n=%lld: d=%lld/%lld "
                       "work=%llu/%llu\n",
                       isa_name(level), static_cast<long long>(n),
                       static_cast<long long>(d), static_cast<long long>(d_ref),
                       static_cast<unsigned long long>(r.work),
                       static_cast<unsigned long long>(work_ref));
          return 1;
        }
      }
    }
    force_isa(detected_isa());
  }

  // ---- BENCH_PR6: mail routing, stable_sort baseline vs radix scatter. ----
  // One round whose machines emit a skewed burst of small envelopes; the
  // baseline is what routing used to be (flat move + one global
  // std::stable_sort of the merged mail), re-verified byte-identical to
  // what the cluster's radix router produced.
  {
    const std::size_t machines = smoke ? 32 : 512;
    const std::size_t per_machine = smoke ? 4 : 64;
    const auto fill = [&](mpc::MachineContext& ctx) {
      for (std::size_t m = 0; m < per_machine; ++m) {
        const std::uint64_t r = ctx.rng().next();
        const auto dest = r % 4 != 0
                              ? static_cast<std::uint32_t>(r % 3)
                              : static_cast<std::uint32_t>(r % (machines * 4));
        ByteWriter w;
        w.put<std::uint64_t>(ctx.machine_id());
        w.put<std::uint64_t>(m);
        ctx.emit(dest, std::move(w).take());
      }
    };
    const std::vector<Bytes> inputs(machines);
    const auto total =
        static_cast<std::int64_t>(machines * per_machine);

    mpc::ClusterConfig cfg;
    cfg.seed = 31;
    mpc::Cluster cluster(cfg);
    mpc::Mail mail;
    Record radix{"mail_route_radix", total};
    radix.wall_seconds = time_best(
        [&] { mail = cluster.run_round("bench:route", inputs, fill); }, reps);
    radix.work = mail.message_count();
    radix.bytes_moved = cluster.trace().rounds().back().total_comm_bytes;
    isa_records.push_back(radix);

    // Baseline: the envelopes in emission order, then one global sort.
    // Emission order is reconstructed from the (machine id, emission index)
    // header every payload carries, so the baseline sorts genuinely
    // unsorted input like the retired router did.
    std::vector<mpc::Envelope> flat;
    for (const mpc::Envelope& env : mail.all()) {
      flat.push_back(mpc::Envelope{env.dest, env.payload});
    }
    const auto emission_key = [](const mpc::Envelope& env) {
      std::uint64_t machine = 0;
      std::uint64_t index = 0;
      std::memcpy(&machine, env.payload.data(), sizeof machine);
      std::memcpy(&index, env.payload.data() + sizeof machine, sizeof index);
      return std::pair<std::uint64_t, std::uint64_t>(machine, index);
    };
    std::sort(flat.begin(), flat.end(),
              [&](const mpc::Envelope& x, const mpc::Envelope& y) {
                return emission_key(x) < emission_key(y);
              });
    std::vector<mpc::Envelope> sorted;
    Record stable{"mail_route_stable", total};
    stable.wall_seconds = time_best(
        [&] {
          sorted.clear();
          for (const mpc::Envelope& env : flat) {
            sorted.push_back(mpc::Envelope{env.dest, env.payload});
          }
          std::stable_sort(sorted.begin(), sorted.end(),
                           [](const mpc::Envelope& x, const mpc::Envelope& y) {
                             return x.dest < y.dest;
                           });
        },
        reps);
    stable.work = sorted.size();
    stable.bytes_moved = radix.bytes_moved;
    isa_records.push_back(stable);

    // Byte-identical check: the global stable sort of the emission-order
    // envelopes must reproduce exactly what the radix router produced.
    if (sorted.size() != mail.all().size()) {
      std::fprintf(stderr, "FATAL: routing baseline lost envelopes\n");
      return 1;
    }
    for (std::size_t i = 0; i < sorted.size(); ++i) {
      if (sorted[i].dest != mail.all()[i].dest ||
          sorted[i].payload != mail.all()[i].payload) {
        std::fprintf(stderr,
                     "FATAL: radix routing differs from stable sort at %zu\n", i);
        return 1;
      }
    }
  }

  // ---- Batch throughput (BENCH_PR3): distance_batch vs sequential. ----
  const std::size_t workers = ThreadPool().worker_count();
  std::vector<BatchRecord> batch_records;
  bool rounds_ok = true;
  const std::int64_t ulam_n = smoke ? 256 : (full ? 4096 : 2048);
  const std::int64_t edit_n = smoke ? 128 : 1024;
  // The kParallelGuess mode runs the whole clipped ladder for every query;
  // at n=1024 that is ~300x the early-exit work, so the default tier
  // records it at a smaller n and only --full pays for the big point.
  const std::int64_t edit_parallel_n = smoke ? 128 : (full ? 1024 : 256);
  const std::size_t max_b = smoke ? 4 : 8;
  {
    std::vector<std::size_t> ulam_batches{1, max_b};
    if (full) ulam_batches.push_back(64);
    for (const std::size_t b : ulam_batches) {
      const double seq_qps =
          bench_seq_point(batch_records, /*ulam=*/true, ulam_n, b, wall_reps);
      rounds_ok = bench_batch_point(batch_records, /*ulam=*/true,
                                    core::BatchMode::kThroughput, ulam_n, b,
                                    seq_qps, wall_reps) &&
                  rounds_ok;
    }
    for (const std::size_t b : {std::size_t{1}, max_b}) {
      const double seq_qps =
          bench_seq_point(batch_records, /*ulam=*/false, edit_n, b, wall_reps);
      rounds_ok = bench_batch_point(batch_records, /*ulam=*/false,
                                    core::BatchMode::kThroughput, edit_n, b,
                                    seq_qps, wall_reps) &&
                  rounds_ok;
    }
    // The paper-literal mode, for the record (and the smoke round gate).
    double parallel_seq_qps = 0.0;
    if (edit_parallel_n == edit_n) {
      for (const BatchRecord& r : batch_records) {
        if (r.bench == "edit_seq" && r.n == edit_n && r.batch == max_b) {
          parallel_seq_qps = r.qps;
        }
      }
    } else {
      parallel_seq_qps = bench_seq_point(batch_records, /*ulam=*/false,
                                         edit_parallel_n, max_b, wall_reps);
    }
    rounds_ok =
        bench_batch_point(batch_records, /*ulam=*/false,
                          core::BatchMode::kParallelGuess, edit_parallel_n,
                          max_b, parallel_seq_qps, wall_reps) &&
        rounds_ok;
  }

  // ---- BENCH_PR7: execution backends, thread pool vs forked processes. ----
  // The same batch workload per algorithm on both backends.  Everything
  // metered must agree bit for bit (checked here); only wall clock may
  // move, and the gate below caps how far.
  std::vector<Record> backend_records;
  {
    const std::int64_t backend_n = smoke ? 128 : 2000;
    const std::size_t backend_b = smoke ? 2 : 4;
    for (const bool ulam : {true, false}) {
      const auto queries = make_batch_queries(backend_b, backend_n, ulam);
      const auto solve = [&](mpc::BackendKind backend) {
        core::BatchRequest request;
        request.algorithm =
            ulam ? core::BatchAlgorithm::kUlam : core::BatchAlgorithm::kEdit;
        request.mode = core::BatchMode::kThroughput;
        request.ulam.seed = 13;
        request.ulam.backend = backend;
        request.edit.backend = backend;
        request.recorder = &bench_recorder;
        request.queries = queries;
        return core::distance_batch(request);
      };
      const char* algo = ulam ? "ulam" : "edit";
      core::BatchResult threaded;
      core::BatchResult forked;
      Record thread_rec{std::string(algo) + "_batch_backend_thread", backend_n};
      thread_rec.wall_seconds = wall_median(
          [&] { threaded = solve(mpc::BackendKind::kThread); }, wall_reps);
      thread_rec.work = threaded.trace.total_work();
      thread_rec.bytes_moved = threaded.trace.total_comm_bytes();
      backend_records.push_back(thread_rec);

      Record process_rec{std::string(algo) + "_batch_backend_process",
                         backend_n};
      process_rec.wall_seconds = wall_median(
          [&] { forked = solve(mpc::BackendKind::kProcess); }, wall_reps);
      process_rec.work = forked.trace.total_work();
      process_rec.bytes_moved = forked.trace.total_comm_bytes();
      backend_records.push_back(process_rec);

      if (forked.trace.structural_hash() != threaded.trace.structural_hash()) {
        std::fprintf(stderr,
                     "FATAL: %s batch trace hash differs across backends\n",
                     algo);
        return 1;
      }
      for (std::size_t q = 0; q < queries.size(); ++q) {
        if (forked.queries[q].distance != threaded.queries[q].distance) {
          std::fprintf(stderr,
                       "FATAL: %s query %zu distance differs across backends\n",
                       algo, q);
          return 1;
        }
      }
    }
  }

  // ---- BENCH_PR8: router off vs auto on a skewed near-duplicate batch. ----
  // Three quarters of the pairs sit within edit distance 8 (including exact
  // duplicates); the tail is ~n/8 edits away.  Both runs pin an explicit
  // policy — the MPCSD_ROUTER env never reaches an explicit request.
  std::vector<RouterRecord> router_records;
  {
    const std::int64_t router_n = smoke ? 128 : 2000;
    const std::size_t router_b = smoke ? 4 : 32;
    const auto pairs = core::near_duplicate_pairs(
        router_n, router_b, /*near_fraction=*/0.75,
        /*tail_edits=*/std::max<std::int64_t>(4, router_n / 8), /*seed=*/77);
    std::vector<core::BatchQuery> queries;
    queries.reserve(pairs.size());
    for (const core::QueryPair& pair : pairs) {
      core::BatchQuery query;
      query.s = pair.s;
      query.t = pair.t;
      queries.push_back(std::move(query));
    }
    const auto solve = [&](core::RouterPolicy policy, obs::Recorder* rec) {
      core::BatchRequest request;
      request.algorithm = core::BatchAlgorithm::kEdit;
      request.mode = core::BatchMode::kThroughput;
      request.router = policy;
      request.recorder = rec;
      request.queries = queries;
      return core::distance_batch(request);
    };

    core::BatchResult off_result;
    RouterRecord off;
    off.bench = "edit_router_off";
    off.n = router_n;
    off.batch = router_b;
    off.wall_seconds = wall_median(
        [&] { off_result = solve(core::RouterPolicy::kOff, &bench_recorder); },
        wall_reps);
    off.qps = double(router_b) / off.wall_seconds;
    off.rounds = off_result.trace.round_count();
    off.passes = off_result.passes;
    off.ratio_vs_off = 1.0;
    router_records.push_back(off);

    core::BatchResult routed_result;
    RouterRecord routed;
    routed.bench = "edit_router_auto";
    routed.n = router_n;
    routed.batch = router_b;
    routed.wall_seconds = wall_median(
        [&] {
          routed_result = solve(core::RouterPolicy::kAuto, &bench_recorder);
        },
        wall_reps);
    routed.qps = double(router_b) / routed.wall_seconds;
    routed.rounds = routed_result.trace.round_count();
    routed.passes = routed_result.passes;
    routed.ratio_vs_off = routed.qps / off.qps;

    // The ladder certifies a (1 + eps) upper bound; a retired query answers
    // exactly.  Routing may therefore only improve an answer, never worsen
    // it: exact <= router-auto <= router-off, query by query.
    for (std::size_t q = 0; q < queries.size(); ++q) {
      const std::int64_t exact =
          seq::edit_distance_output_sensitive(queries[q].s, queries[q].t);
      const std::int64_t routed_d = routed_result.queries[q].distance;
      const std::int64_t off_d = off_result.queries[q].distance;
      if (routed_d < exact || routed_d > off_d) {
        std::fprintf(
            stderr,
            "FATAL: router broke query %zu ordering: exact=%lld auto=%lld "
            "off=%lld\n",
            q, static_cast<long long>(exact),
            static_cast<long long>(routed_d), static_cast<long long>(off_d));
        return 1;
      }
    }

    // Decision counts come from a sinked re-run on a local recorder so the
    // gated walls above keep pricing the disabled recorder on the hot path.
    obs::Recorder counted;
    const auto decisions = std::make_shared<obs::AggregateSink>();
    counted.add_sink(decisions);
    (void)solve(core::RouterPolicy::kAuto, &counted);
    counted.flush();
    const auto decision_count = [&](const char* name) -> std::uint64_t {
      const auto it = decisions->counters().find(name);
      return it == decisions->counters().end()
                 ? 0
                 : static_cast<std::uint64_t>(it->second.last);
    };
    routed.examined = decision_count("router.examined");
    routed.retired_seq = decision_count("router.retired_seq");
    routed.probed = decision_count("router.probed");
    routed.lower_bounded = decision_count("router.lower_bounded");
    routed.to_plan = decision_count("router.to_plan");
    // Degenerate pairs (equal / empty strings) resolve before the router,
    // so `examined` counts the rest — and every examined query must either
    // retire or go to the plan.
    if (routed.examined > router_b ||
        routed.retired_seq + routed.to_plan != routed.examined) {
      std::fprintf(stderr,
                   "FATAL: router decision counts inconsistent: examined=%llu "
                   "retired=%llu to_plan=%llu (B=%zu)\n",
                   static_cast<unsigned long long>(routed.examined),
                   static_cast<unsigned long long>(routed.retired_seq),
                   static_cast<unsigned long long>(routed.to_plan), router_b);
      return 1;
    }
    router_records.push_back(routed);
  }

  const auto wrote = [](bool ok, const std::string& path) {
    if (!ok) std::fprintf(stderr, "FAIL: cannot write %s\n", path.c_str());
    return ok;
  };
  if (!wrote(write_json(records, out_path), out_path) ||
      !wrote(write_batch_json(batch_records, out2_path), out2_path) ||
      !wrote(write_json(isa_records, out4_path), out4_path) ||
      !wrote(write_json(backend_records, out5_path), out5_path) ||
      !wrote(write_router_json(router_records, out6_path), out6_path)) {
    return 1;
  }
  std::printf("perf_suite: %zu records -> %s\n", records.size(), out_path.c_str());
  for (const Record& r : records) {
    std::printf("  %-22s n=%-8lld wall=%.6fs work=%llu bytes_moved=%llu\n",
                r.bench.c_str(), static_cast<long long>(r.n), r.wall_seconds,
                static_cast<unsigned long long>(r.work),
                static_cast<unsigned long long>(r.bytes_moved));
  }
  std::printf("perf_suite: %zu ISA/routing records -> %s (detected: %s)\n",
              isa_records.size(), out4_path.c_str(), isa_name(detected_isa()));
  for (const Record& r : isa_records) {
    std::printf("  %-22s n=%-8lld wall=%.6fs work=%llu bytes_moved=%llu\n",
                r.bench.c_str(), static_cast<long long>(r.n), r.wall_seconds,
                static_cast<unsigned long long>(r.work),
                static_cast<unsigned long long>(r.bytes_moved));
  }
  std::printf("perf_suite: %zu backend records -> %s\n",
              backend_records.size(), out5_path.c_str());
  for (const Record& r : backend_records) {
    std::printf("  %-28s n=%-8lld wall=%.6fs work=%llu bytes_moved=%llu\n",
                r.bench.c_str(), static_cast<long long>(r.n), r.wall_seconds,
                static_cast<unsigned long long>(r.work),
                static_cast<unsigned long long>(r.bytes_moved));
  }
  std::printf("perf_suite: %zu batch records -> %s (workers=%zu)\n",
              batch_records.size(), out2_path.c_str(), workers);
  for (const BatchRecord& r : batch_records) {
    std::printf(
        "  %-12s %-10s n=%-6lld B=%-3zu wall=%.4fs qps=%.2f rounds=%zu "
        "passes=%zu ratio=%.2f\n",
        r.bench.c_str(), r.mode.c_str(), static_cast<long long>(r.n), r.batch,
        r.wall_seconds, r.qps, r.rounds, r.passes, r.ratio_vs_seq);
  }
  std::printf("perf_suite: %zu router records -> %s\n", router_records.size(),
              out6_path.c_str());
  for (const RouterRecord& r : router_records) {
    std::printf(
        "  %-18s n=%-6lld B=%-3zu wall=%.4fs qps=%.2f passes=%zu "
        "ratio=%.2f retired=%llu probed=%llu lower_bounded=%llu to_plan=%llu\n",
        r.bench.c_str(), static_cast<long long>(r.n), r.batch, r.wall_seconds,
        r.qps, r.passes, r.ratio_vs_off,
        static_cast<unsigned long long>(r.retired_seq),
        static_cast<unsigned long long>(r.probed),
        static_cast<unsigned long long>(r.lower_bounded),
        static_cast<unsigned long long>(r.to_plan));
  }

  // ---- BENCH_PR5: the benchmark numbers through the aggregate sink. ----
  // Sinks attach only now, after every gated measurement: each record
  // re-emits as one uniquely named span, then one small traced batch run
  // adds real round/stage/pass/query events so the optional Chrome
  // artifact (--trace-out) is a faithful end-to-end trace.
  const auto aggregate = std::make_shared<obs::AggregateSink>();
  bench_recorder.add_sink(aggregate);
  std::shared_ptr<obs::ChromeTraceSink> chrome;
  if (!trace_path.empty()) {
    chrome = std::make_shared<obs::ChromeTraceSink>();
    bench_recorder.add_sink(chrome);
  }
  for (const Record& r : records) {
    obs::TraceEvent ev;
    ev.kind = obs::EventKind::kSpan;
    ev.name = "bench:" + r.bench + ":n=" + std::to_string(r.n);
    ev.category = "bench";
    ev.ts_us = bench_recorder.now_us();
    ev.dur_us = static_cast<std::uint64_t>(r.wall_seconds * 1e6);
    ev.args = {{"n", static_cast<double>(r.n)},
               {"wall_seconds", r.wall_seconds},
               {"work", static_cast<double>(r.work)},
               {"bytes_moved", static_cast<double>(r.bytes_moved)}};
    bench_recorder.emit(std::move(ev));
  }
  for (const BatchRecord& r : batch_records) {
    obs::TraceEvent ev;
    ev.kind = obs::EventKind::kSpan;
    ev.name = "bench:" + r.bench + ":" + r.mode + ":n=" + std::to_string(r.n) +
              ":B=" + std::to_string(r.batch);
    ev.category = "bench";
    ev.ts_us = bench_recorder.now_us();
    ev.dur_us = static_cast<std::uint64_t>(r.wall_seconds * 1e6);
    ev.args = {{"n", static_cast<double>(r.n)},
               {"batch", static_cast<double>(r.batch)},
               {"wall_seconds", r.wall_seconds},
               {"qps", r.qps},
               {"rounds", static_cast<double>(r.rounds)},
               {"passes", static_cast<double>(r.passes)},
               {"ratio_vs_seq", r.ratio_vs_seq}};
    bench_recorder.emit(std::move(ev));
  }
  for (const RouterRecord& r : router_records) {
    obs::TraceEvent ev;
    ev.kind = obs::EventKind::kSpan;
    ev.name = "bench:" + r.bench + ":n=" + std::to_string(r.n) +
              ":B=" + std::to_string(r.batch);
    ev.category = "bench";
    ev.ts_us = bench_recorder.now_us();
    ev.dur_us = static_cast<std::uint64_t>(r.wall_seconds * 1e6);
    ev.args = {{"n", static_cast<double>(r.n)},
               {"batch", static_cast<double>(r.batch)},
               {"wall_seconds", r.wall_seconds},
               {"qps", r.qps},
               {"passes", static_cast<double>(r.passes)},
               {"ratio_vs_off", r.ratio_vs_off},
               {"router_retired_seq", static_cast<double>(r.retired_seq)},
               {"router_probed", static_cast<double>(r.probed)},
               {"router_to_plan", static_cast<double>(r.to_plan)}};
    bench_recorder.emit(std::move(ev));
  }
  {
    core::BatchRequest request;
    request.algorithm = core::BatchAlgorithm::kUlam;
    request.mode = core::BatchMode::kThroughput;
    request.ulam.seed = 13;
    request.recorder = &bench_recorder;
    request.queries = make_batch_queries(2, 128, /*ulam=*/true);
    (void)core::distance_batch(request);
  }
  bench_recorder.flush();
  if (!aggregate->write_file(out3_path)) {
    std::fprintf(stderr, "FAIL: cannot write %s\n", out3_path.c_str());
    return 1;
  }
  std::printf("perf_suite: %zu spans + %zu counters -> %s\n",
              aggregate->spans().size(), aggregate->counters().size(),
              out3_path.c_str());
  if (chrome != nullptr) {
    if (!chrome->write_file(trace_path)) {
      std::fprintf(stderr, "FAIL: cannot write %s\n", trace_path.c_str());
      return 1;
    }
    std::printf("perf_suite: %zu trace events -> %s\n", chrome->event_count(),
                trace_path.c_str());
  }

  if (!rounds_ok) {
    std::fprintf(stderr, "FAIL: a batch execution used extra simulator rounds\n");
    return 1;
  }

  if (smoke) {
    if (!json_well_formed(out_path, records.size())) {
      std::fprintf(stderr, "FAIL: %s is not well-formed JSON\n", out_path.c_str());
      return 1;
    }
    if (!json_well_formed(out2_path, batch_records.size())) {
      std::fprintf(stderr, "FAIL: %s is not well-formed JSON\n", out2_path.c_str());
      return 1;
    }
    if (!json_well_formed(out4_path, isa_records.size())) {
      std::fprintf(stderr, "FAIL: %s is not well-formed JSON\n", out4_path.c_str());
      return 1;
    }
    if (!json_well_formed(out5_path, backend_records.size())) {
      std::fprintf(stderr, "FAIL: %s is not well-formed JSON\n", out5_path.c_str());
      return 1;
    }
    if (!json_well_formed(out6_path, router_records.size())) {
      std::fprintf(stderr, "FAIL: %s is not well-formed JSON\n", out6_path.c_str());
      return 1;
    }
    // The aggregate must have seen every re-emitted record plus the traced
    // batch run's round/stage/pass spans.
    if (aggregate->spans().size() < records.size() + batch_records.size()) {
      std::fprintf(stderr, "FAIL: aggregate sink missing spans (%zu < %zu)\n",
                   aggregate->spans().size(),
                   records.size() + batch_records.size());
      return 1;
    }
    std::printf("smoke: JSON well-formed (%zu + %zu records), rounds gate held\n",
                records.size(), batch_records.size());
    return 0;
  }

  const double scalar_wall = record_wall(records, "edit_unit_scalar", 2000);
  const double fast_wall = record_wall(records, "edit_unit_fast", 2000);
  const double speedup = scalar_wall / fast_wall;
  std::printf("unit-distance speedup at n=2000: %.2fx (gate: >= 3x)\n", speedup);
  if (!(speedup >= 3.0)) {
    std::fprintf(stderr, "FAIL: unit-distance speedup %.2fx < 3x\n", speedup);
    return 1;
  }

  // ---- BENCH_PR6 kernel ISA gate: AVX2 must double scalar at n=2000. ----
  if (detected_isa() >= Isa::kAvx2) {
    const double myers_scalar = record_wall(isa_records, "myers_scalar", 2000);
    const double myers_avx2 = record_wall(isa_records, "myers_avx2", 2000);
    const double isa_speedup = myers_scalar / myers_avx2;
    std::printf("myers AVX2 speedup at n=2000: %.2fx (gate: >= 2x)\n",
                isa_speedup);
    if (!(isa_speedup >= 2.0)) {
      std::fprintf(stderr, "FAIL: AVX2 kernel speedup %.2fx < 2x\n", isa_speedup);
      return 1;
    }
    if (detected_isa() >= Isa::kAvx512) {
      const double myers_avx512 = record_wall(isa_records, "myers_avx512", 2000);
      std::printf("myers AVX-512 speedup at n=2000: %.2fx (recorded)\n",
                  myers_scalar / myers_avx512);
    }
  } else {
    std::printf("scalar-only host: ISA kernel gate skipped\n");
  }

  // ---- Batch throughput ratio gates (largest default-tier B). ----
  const double edit_ratio =
      batch_ratio(batch_records, "edit_batch", "throughput", edit_n, max_b);
  const double ulam_ratio =
      batch_ratio(batch_records, "ulam_batch", "throughput", ulam_n, max_b);

  // Escalation is a work reduction (skips the rungs past the accepted
  // guess), so edit throughput must stay within 2x of the sequential
  // early-exit solver even on a single worker.  Hard gate on every host.
  std::printf("edit_batch throughput ratio at n=%lld B=%zu: %.2fx (gate: >= 0.5x)\n",
              static_cast<long long>(edit_n), max_b, edit_ratio);
  if (!(edit_ratio >= 0.5)) {
    std::fprintf(stderr, "FAIL: edit_batch qps %.2fx sequential < 0.5x\n",
                 edit_ratio);
    return 1;
  }

  // On a multi-worker host the shared rounds expose cross-query
  // parallelism, so batching must not lose to sequential for either
  // algorithm, and Ulam (fixed 2-round pipeline, pure batching win) must
  // clear 1.5x once >= 4 workers are available.
  if (workers > 1) {
    std::printf("ratio gates (workers=%zu): edit %.2fx, ulam %.2fx (>= 1x)\n",
                workers, edit_ratio, ulam_ratio);
    if (!(edit_ratio >= 1.0) || !(ulam_ratio >= 1.0)) {
      std::fprintf(stderr,
                   "FAIL: batch below sequential qps (edit %.2fx, ulam %.2fx)\n",
                   edit_ratio, ulam_ratio);
      return 1;
    }
  } else {
    std::printf("single-worker simulator: multi-worker ratio gates skipped\n");
  }
  if (workers >= 4) {
    std::printf("ulam_batch ratio at B=%zu: %.2fx (gate: >= 1.5x)\n", max_b,
                ulam_ratio);
    if (!(ulam_ratio >= 1.5)) {
      std::fprintf(stderr, "FAIL: ulam_batch qps %.2fx sequential < 1.5x\n",
                   ulam_ratio);
      return 1;
    }
  }

  // ---- BENCH_PR7 backend gate: fork + shm round overhead stays bounded. ----
  // Forking workers and shuttling results through memfd arenas costs wall
  // time every round; on real batch workloads at n=2000 the process backend
  // must stay within 2x of the thread backend, or the isolation win has
  // priced itself out of production use.
  for (const char* algo : {"ulam", "edit"}) {
    const double thread_wall = record_wall(
        backend_records, std::string(algo) + "_batch_backend_thread", 2000);
    const double process_wall = record_wall(
        backend_records, std::string(algo) + "_batch_backend_process", 2000);
    const double overhead = process_wall / thread_wall;
    std::printf("%s process-backend overhead at n=2000: %.2fx (gate: <= 2x)\n",
                algo, overhead);
    if (!(overhead <= 2.0)) {
      std::fprintf(stderr,
                   "FAIL: %s process backend %.2fx thread backend > 2x\n", algo,
                   overhead);
      return 1;
    }
  }

  // ---- BENCH_PR8 router gate: >= 3x qps on the skewed batch. ----
  // Most of the batch retires before pass 1 (near-duplicate probes are
  // O(n + k*n/w) work), so the router must beat the full escalation ladder
  // by a wide margin or its cost model is mispriced.
  {
    double router_ratio = 0.0;
    for (const RouterRecord& r : router_records) {
      if (r.bench == "edit_router_auto") router_ratio = r.ratio_vs_off;
    }
    std::printf("router-auto qps on skewed batch (n=2000, B=32): %.2fx "
                "router-off (gate: >= 3x)\n",
                router_ratio);
    if (!(router_ratio >= 3.0)) {
      std::fprintf(stderr, "FAIL: router-auto qps %.2fx router-off < 3x\n",
                   router_ratio);
      return 1;
    }
  }
  return 0;
}
