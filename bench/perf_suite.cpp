// Machine-readable performance regression suite.  One run writes one JSON
// file:
//
//   {"tier": "gated"|"smoke",
//    "host": {"isa": ..., "workers": ..., "nproc": ..., "commit": ...},
//    "records": [...], "gates": [...]}
//
// `nproc` is the host's hardware thread count and `commit` the source
// checkout's HEAD as `git describe --always --dirty` names it (a "-dirty"
// suffix marks a run of uncommitted changes; "unknown" without git).
//
// Every measured point is one record with the same fields: suite, bench,
// mode, n, batch, reps, wall_stat ("min" or "median" of `reps` runs),
// wall_seconds, work, bytes_moved, rounds, passes and a counters object
// (filled only by the router rows).  Suites, in run order:
//
//  * kernel  — edit_unit_{scalar,fast}, the unit-distance kernel (full DP)
//    that round-1 machines run per (block, window) pair, and
//    edit_bounded_{scalar,fast}, the capped kernel the small/large distance
//    pipelines run on near pairs.  Scalar and fast distances must agree.
//  * combine — ulam_combine_{copy,view}: materialising the combine
//    machine's inbox from round-1 mail by concatenating every payload
//    (bytes_moved = inbox size) vs reading the envelopes in place
//    (bytes_moved = 0).  Both must parse every tuple.
//  * e2e     — ulam_e2e, a whole Theorem 4 solve; work and bytes_moved
//    come from the execution trace.
//  * isa     — myers_{scalar,avx2,avx512}: the multi-word Myers kernel
//    forced to each ISA level the host supports on the same inputs; the
//    distances and work meters must be identical.
//  * route   — mail_route_{radix,stable}: the cluster's counting/radix mail
//    scatter vs a flat move + global std::stable_sort, whose output must
//    be byte-identical.
//  * batch   — core::distance_batch ({ulam,edit}_batch, mode parallel or
//    throughput) against the same B queries solved one *_distance_mpc call
//    at a time ({ulam,edit}_seq, mode seq), router off.  Every tier
//    hard-checks the round shape: an Ulam batch shares exactly 2 rounds, a
//    kParallelGuess batch runs 1 pass of at most 4 (its small rungs' round
//    pair beside its large rungs' Lemma 8 rounds), and a kThroughput batch
//    exactly 2 per escalation pass.
//  * backend — {ulam,edit}_batch_backend_{thread,process}: the same batch
//    with machine bodies on the thread pool vs forked worker processes;
//    per-query distances and trace structural hashes must be identical.
//  * router  — edit_router_{off,auto}: one skewed near-duplicate batch
//    (75% of pairs within edit distance 8, the rest ~n/8 edits away) with
//    the cost-model router off vs auto.  Answers must satisfy
//    exact <= auto <= off per query, and the decision counters of a sinked
//    re-run must add up (every examined query retires or reaches the plan).
//
// Speedups and overheads are not record fields: they are rows of the gate
// table at the end of main, each the wall ratio of two records with a
// threshold and a host condition.  The gates apply to the gated tier only;
// `--smoke` runs tiny sizes once and keeps every cross-check and the round
// shape check, so ctest keeps the harness from rotting without timing noise
// failing CI.  A record that a gate's host condition needs but the run did
// not produce fails the run in either tier.
//
// Usage: perf_suite [--smoke] [--out <file>].  The output defaults to
// BENCH_perf.json in the working directory, or for a smoke run to
// BENCH_smoke.json in this binary's build directory.  Any other flag, or
// --out without a value, is a usage error (exit 2); an output that cannot
// be written or a failed check exits 1.
#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
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
  std::string suite;
  std::string bench;
  std::string mode;  // "" | "seq" | "parallel" | "throughput"
  std::int64_t n = 0;
  std::size_t batch = 0;
  int reps = 0;
  const char* wall_stat = "";
  double wall_seconds = 0.0;
  std::uint64_t work = 0;
  std::uint64_t bytes_moved = 0;
  std::size_t rounds = 0;
  std::size_t passes = 0;
  std::vector<std::pair<std::string, std::uint64_t>> counters{};
};

/// The recorder wired through every measured solver/batch run.  It never
/// carries a sink, which is the point: the gates price the *disabled*
/// recorder on the hot path, so instrumented builds cost nothing when
/// tracing is off.
obs::Recorder bench_recorder;

enum class Stat { kMin, kMedian };

/// Runs `f` `reps` times and stores the chosen statistic of the walls in
/// `r`.  Kernel points take the minimum (the first run warms caches).  The
/// points a ratio gate compares take the median: a gate compares two wall
/// clocks, so one scheduler hiccup on either side could flip it, and the
/// median of 3 absorbs a single outlier.  Model quantities (rounds,
/// passes) are deterministic and measured once.
template <typename F>
void time_into(Record& r, Stat stat, int reps, F&& f) {
  std::vector<double> walls;
  walls.reserve(static_cast<std::size_t>(reps));
  for (int i = 0; i < reps; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    f();
    const auto t1 = std::chrono::steady_clock::now();
    walls.push_back(std::chrono::duration<double>(t1 - t0).count());
  }
  std::sort(walls.begin(), walls.end());
  r.reps = reps;
  r.wall_stat = stat == Stat::kMin ? "min" : "median";
  r.wall_seconds = stat == Stat::kMin ? walls.front() : walls[walls.size() / 2];
}

/// Identifies the record a gate reads.
struct Key {
  std::string bench;
  std::string mode;
  std::int64_t n = 0;
  std::size_t batch = 0;
};

const Record* find(const std::vector<Record>& records, const Key& key) {
  for (const Record& r : records) {
    if (r.bench == key.bench && r.mode == key.mode && r.n == key.n &&
        r.batch == key.batch) {
      return &r;
    }
  }
  return nullptr;
}

/// One gate: numerator wall / denominator wall compared against a
/// threshold, on the gated tier of hosts that meet `condition`.
struct Gate {
  const char* name;
  Key numerator;
  Key denominator;
  bool at_most;  // value <= threshold; otherwise value >= threshold
  double threshold;
  const char* condition;
  bool host_ok;  // the host meets `condition`
  // Filled by evaluate():
  std::string missing{};  // names a record the run did not produce
  bool applies = false;
  double value = std::nan("");
  const char* result = "";
};

void evaluate(Gate& g, const std::vector<Record>& records, bool smoke) {
  const Record* num = find(records, g.numerator);
  const Record* den = find(records, g.denominator);
  const Key* missing = num == nullptr   ? &g.numerator
                       : den == nullptr ? &g.denominator
                                        : nullptr;
  if (missing != nullptr) {
    g.missing = "bench=" + missing->bench + " mode=" + missing->mode +
                " n=" + std::to_string(missing->n) +
                " B=" + std::to_string(missing->batch);
  }
  g.applies = g.host_ok && !smoke;
  if (g.missing.empty()) g.value = num->wall_seconds / den->wall_seconds;
  if (g.host_ok && !g.missing.empty()) {
    g.result = "fail";
  } else if (!g.applies) {
    g.result = "skip";
  } else {
    const bool pass = g.at_most ? g.value <= g.threshold : g.value >= g.threshold;
    g.result = pass ? "pass" : "fail";
  }
}

void write_key(std::ostream& out, const Key& k) {
  out << "{\"bench\": \"" << k.bench << "\", \"mode\": \"" << k.mode
      << "\", \"n\": " << k.n << ", \"batch\": " << k.batch << "}";
}

/// The source checkout's HEAD, "-dirty" when the tree has uncommitted
/// changes, or "unknown" when git cannot say.
std::string source_commit() {
  const std::string command = std::string("git -C '") + MPCSD_PERF_SUITE_SOURCE_DIR +
                              "' describe --always --dirty --abbrev=40 --exclude='*'"
                              " 2>/dev/null";
  FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) return "unknown";
  std::string out;
  std::array<char, 128> buffer{};
  while (std::fgets(buffer.data(), static_cast<int>(buffer.size()), pipe) != nullptr) {
    out += buffer.data();
  }
  const bool ok = pclose(pipe) == 0;
  while (!out.empty() && (out.back() == '\n' || out.back() == '\r')) out.pop_back();
  return ok && !out.empty() ? out : "unknown";
}

/// Returns false when the file cannot be written.
[[nodiscard]] bool write_report(const std::string& path, bool smoke,
                                std::size_t workers,
                                const std::vector<Record>& records,
                                const std::vector<Gate>& gates) {
  std::ofstream out(path);
  out << "{\"tier\": \"" << (smoke ? "smoke" : "gated") << "\",\n"
      << " \"host\": {\"isa\": \"" << isa_name(detected_isa())
      << "\", \"workers\": " << workers
      << ", \"nproc\": " << std::thread::hardware_concurrency() << ", \"commit\": \""
      << source_commit() << "\"},\n \"records\": [\n";
  for (std::size_t i = 0; i < records.size(); ++i) {
    const Record& r = records[i];
    out << "  {\"suite\": \"" << r.suite << "\", \"bench\": \"" << r.bench
        << "\", \"mode\": \"" << r.mode << "\", \"n\": " << r.n
        << ", \"batch\": " << r.batch << ", \"reps\": " << r.reps
        << ", \"wall_stat\": \"" << r.wall_stat
        << "\", \"wall_seconds\": " << r.wall_seconds << ", \"work\": " << r.work
        << ", \"bytes_moved\": " << r.bytes_moved << ", \"rounds\": " << r.rounds
        << ", \"passes\": " << r.passes << ", \"counters\": {";
    for (std::size_t c = 0; c < r.counters.size(); ++c) {
      out << (c > 0 ? ", " : "") << "\"" << r.counters[c].first
          << "\": " << r.counters[c].second;
    }
    out << "}}" << (i + 1 < records.size() ? "," : "") << "\n";
  }
  out << " ],\n \"gates\": [\n";
  for (std::size_t i = 0; i < gates.size(); ++i) {
    const Gate& g = gates[i];
    out << "  {\"name\": \"" << g.name << "\", \"numerator\": ";
    write_key(out, g.numerator);
    out << ", \"denominator\": ";
    write_key(out, g.denominator);
    out << ", \"op\": \"" << (g.at_most ? "<=" : ">=")
        << "\", \"threshold\": " << g.threshold << ", \"condition\": \""
        << g.condition << "\", \"applies\": " << (g.applies ? "true" : "false")
        << ", \"value\": ";
    if (std::isfinite(g.value)) {
      out << g.value;
    } else {
      out << "null";
    }
    out << ", \"result\": \"" << g.result << "\"}"
        << (i + 1 < gates.size() ? "," : "") << "\n";
  }
  out << " ]}\n";
  out.close();
  return !out.fail();
}

void print_report(const std::string& path, bool smoke, std::size_t workers,
                  const std::vector<Record>& records,
                  const std::vector<Gate>& gates) {
  std::printf("perf_suite (%s, isa=%s, workers=%zu): %zu records, %zu gates -> %s\n",
              smoke ? "smoke" : "gated", isa_name(detected_isa()), workers,
              records.size(), gates.size(), path.c_str());
  for (const Record& r : records) {
    std::printf(
        "  %-7s %-28s %-10s n=%-6lld B=%-3zu wall=%.6fs (%s of %d) work=%llu "
        "bytes_moved=%llu rounds=%zu passes=%zu",
        r.suite.c_str(), r.bench.c_str(), r.mode.c_str(),
        static_cast<long long>(r.n), r.batch, r.wall_seconds, r.wall_stat,
        r.reps, static_cast<unsigned long long>(r.work),
        static_cast<unsigned long long>(r.bytes_moved), r.rounds, r.passes);
    for (const auto& [name, value] : r.counters) {
      std::printf(" %s=%llu", name.c_str(), static_cast<unsigned long long>(value));
    }
    std::printf("\n");
  }
  for (const Gate& g : gates) {
    std::printf("  gate %-28s %s / %s n=%lld = %.2fx (%s %.2f; %s) %s\n", g.name,
                g.numerator.bench.c_str(), g.denominator.bench.c_str(),
                static_cast<long long>(g.numerator.n), g.value,
                g.at_most ? "<=" : ">=", g.threshold, g.condition, g.result);
  }
}

/// Just enough validation that the file is what was written: a
/// bracket-balanced JSON object with one "suite" key per record and one
/// "result" key per gate.
bool json_well_formed(const std::string& path, std::size_t records,
                      std::size_t gates) {
  std::ifstream in(path);
  if (!in) return false;
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string text = ss.str();
  long depth = 0;
  std::size_t suites = 0;
  std::size_t results = 0;
  for (std::size_t i = 0; i < text.size(); ++i) {
    if (text[i] == '[' || text[i] == '{') ++depth;
    if (text[i] == ']' || text[i] == '}') --depth;
    if (depth < 0) return false;
    if (text.compare(i, 8, "\"suite\":") == 0) ++suites;
    if (text.compare(i, 9, "\"result\":") == 0) ++results;
  }
  return depth == 0 && !text.empty() && text.front() == '{' &&
         suites == records && results == gates;
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
void bench_seq_point(std::vector<Record>& records, bool ulam, std::int64_t n,
                     std::size_t b, int reps) {
  const auto queries = make_batch_queries(b, n, ulam);
  Record seq{"batch", ulam ? "ulam_seq" : "edit_seq", "seq", n, b};
  std::size_t seq_rounds = 0;
  time_into(seq, Stat::kMedian, reps, [&] {
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
  });
  seq.rounds = seq_rounds;
  records.push_back(seq);
}

/// One `distance_batch` execution in `mode`, router off (a routed batch
/// may retire every query before the ladder).  Returns false on a
/// round-shape violation: an Ulam batch must share exactly 2 rounds, a
/// kParallelGuess batch 1 pass of at most 4 rounds, a kThroughput batch
/// exactly 2 rounds per escalation pass.
bool bench_batch_point(std::vector<Record>& records, bool ulam,
                       core::BatchMode mode, std::int64_t n, std::size_t b,
                       int reps) {
  const auto queries = make_batch_queries(b, n, ulam);
  Record bat{"batch", ulam ? "ulam_batch" : "edit_batch",
             mode == core::BatchMode::kThroughput ? "throughput" : "parallel",
             n, b};
  core::BatchResult result;
  time_into(bat, Stat::kMedian, reps, [&] {
    core::BatchRequest request;
    request.algorithm =
        ulam ? core::BatchAlgorithm::kUlam : core::BatchAlgorithm::kEdit;
    request.mode = mode;
    request.router = core::RouterPolicy::kOff;
    request.ulam.seed = 13;
    request.recorder = &bench_recorder;
    request.queries = queries;
    result = core::distance_batch(request);
  });
  bat.rounds = result.trace.round_count();
  bat.passes = result.passes;
  records.push_back(bat);

  if (ulam) return bat.rounds == 2;
  if (mode == core::BatchMode::kParallelGuess) {
    return bat.passes == 1 && bat.rounds <= 4;
  }
  return bat.rounds == 2 * bat.passes && bat.passes >= 1;
}

int usage(const char* problem, const char* flag) {
  std::fprintf(stderr,
               "perf_suite: %s '%s'\nusage: perf_suite [--smoke] [--out <file>]\n",
               problem, flag);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--out") == 0) {
      if (i + 1 >= argc) return usage("missing value for", argv[i]);
      out_path = argv[++i];
    } else {
      return usage("unknown flag", argv[i]);
    }
  }
  // A smoke run's tiny-size numbers land under this binary's build
  // directory, never over the committed gated snapshot.
  if (out_path.empty()) {
    out_path = smoke ? std::string(MPCSD_PERF_SUITE_BINARY_DIR) + "/BENCH_smoke.json"
                     : std::string("BENCH_perf.json");
  }
  const std::size_t workers = ThreadPool().worker_count();
  // Ratio-gated points take the median of 3 runs (see time_into); smoke
  // keeps 1 rep, since it never enforces a ratio gate.
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
    Record scalar{"kernel", "edit_unit_scalar", "", n};
    time_into(scalar, Stat::kMin, reps, [&] { d_scalar = seq::edit_distance(a, b); });
    seq::edit_distance(a, b, &scalar.work);
    records.push_back(scalar);

    Record fast{"kernel", "edit_unit_fast", "", n};
    time_into(fast, Stat::kMin, reps, [&] { d_fast = seq::edit_distance_fast(a, b); });
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
    Record scalar{"kernel", "edit_bounded_scalar", "", n};
    time_into(scalar, Stat::kMin, reps,
              [&] { (void)seq::edit_distance_bounded(a, b, limit); });
    seq::edit_distance_bounded(a, b, limit, &scalar.work);
    records.push_back(scalar);

    Record fast{"kernel", "edit_bounded_fast", "", n};
    time_into(fast, Stat::kMin, reps,
              [&] { (void)seq::edit_distance_bounded_fast(a, b, limit); });
    seq::edit_distance_bounded_fast(a, b, limit, &fast.work);
    records.push_back(fast);
  }

  // ---- Combine inbox: concatenate-then-decode vs decode in place. ----
  // The emit round runs on the plan layer (typed stage + channel, the same
  // path every library driver uses); the `Codec<std::vector<seq::Tuple>>`
  // wire format is byte-identical to the old hand-rolled `write_tuples`
  // emission.  The view row times the combine stages' own decoder
  // (`seq::read_all_tuples` over the routed fragments, what
  // `Codec<mpc::TupleInbox>` runs).  The copy row first materialises the
  // inbox through `ByteChain::to_bytes` — the retired copying-gather
  // semantics.
  {
    const std::size_t machines = smoke ? 4 : 64;
    const std::size_t tuples_per_machine = smoke ? 16 : 512;
    static constexpr mpc::Channel<std::vector<seq::Tuple>> kInbox{0, "inbox"};
    mpc::Driver driver(
        mpc::Plan{"perf:combine-inbox",
                  {{"perf:emit", "machine id (sharded input)", "inbox"}}},
        {});
    const mpc::Stage<std::uint32_t, std::size_t> emit_stage{
        "perf:emit",
        [](mpc::StageContext<std::uint32_t>& ctx, const std::size_t& count) {
          std::vector<seq::Tuple> tuples(count);
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
    const auto mail =
        driver.run(emit_stage, mpc::Driver::shard(ids), tuples_per_machine);
    driver.finish();
    const std::int64_t total_tuples =
        static_cast<std::int64_t>(machines * tuples_per_machine);

    std::size_t parsed = 0;
    Record copy{"combine", "ulam_combine_copy", "", total_tuples};
    time_into(copy, Stat::kMin, reps, [&] {
      // seed semantics: memcpy every payload into one flat buffer
      const Bytes inbox = mpc::gather_view(mail, kInbox.mailbox).to_bytes();
      parsed = seq::read_all_tuples(inbox).size();
    });
    copy.bytes_moved = mpc::gather_view(mail, kInbox.mailbox).to_bytes().size();
    records.push_back(copy);

    Record view{"combine", "ulam_combine_view", "", total_tuples};
    time_into(view, Stat::kMin, reps, [&] {
      const ByteChain inbox = mpc::gather_view(mail, kInbox.mailbox);
      parsed = seq::read_all_tuples(inbox).size();
    });
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
    Record e2e{"e2e", "ulam_e2e", "", n};
    ulam_mpc::UlamMpcResult result;
    time_into(e2e, Stat::kMin, smoke ? 1 : 3,
              [&] { result = ulam_mpc::ulam_distance_mpc(s, SymView(t), params); });
    e2e.work = result.trace.total_work();
    e2e.bytes_moved = result.trace.total_comm_bytes();
    e2e.rounds = result.trace.round_count();
    records.push_back(e2e);
  }

  // ---- Myers kernel throughput per ISA level. ----
  // The same (pattern, text) pair runs through the blocked kernel forced to
  // every level the host supports; distances and work meters must agree
  // bit for bit (ISA dispatch is results- and metering-invisible), only
  // wall time may differ.
  const std::int64_t isa_gate_n = smoke ? 128 : 2000;
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
        Record r{"isa", std::string("myers_") + isa_name(level), "", n};
        time_into(r, Stat::kMin, reps, [&] { d = seq::edit_distance_myers(a, b); });
        seq::edit_distance_myers(a, b, &r.work);
        records.push_back(r);
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

  // ---- Mail routing, stable_sort baseline vs radix scatter. ----
  // One round whose machines emit a skewed burst of small envelopes; the
  // baseline is what routing used to be (flat move + one global
  // std::stable_sort of the merged mail), re-verified byte-identical to
  // what the cluster's radix router produced.
  {
    const std::size_t machines = smoke ? 32 : 512;
    const std::size_t per_machine = smoke ? 4 : 64;
    // Round params: (machines, envelopes per machine).
    struct FillParams {
      std::uint64_t machines;
      std::uint64_t per_machine;
    };
    const auto fill = [](mpc::MachineContext& ctx, const FillParams& p) {
      for (std::size_t m = 0; m < p.per_machine; ++m) {
        const std::uint64_t r = ctx.rng().next();
        const auto dest = r % 4 != 0
                              ? static_cast<std::uint32_t>(r % 3)
                              : static_cast<std::uint32_t>(r % (p.machines * 4));
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
    Record radix{"route", "mail_route_radix", "", total};
    time_into(radix, Stat::kMin, reps,
              [&] {
                mail = cluster.run_round("bench:route", inputs, fill,
                                         FillParams{machines, per_machine});
              });
    radix.work = mail.message_count();
    radix.bytes_moved = cluster.trace().rounds().back().total_comm_bytes;
    records.push_back(radix);

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
    Record stable{"route", "mail_route_stable", "", total};
    time_into(stable, Stat::kMin, reps, [&] {
      sorted.clear();
      for (const mpc::Envelope& env : flat) {
        sorted.push_back(mpc::Envelope{env.dest, env.payload});
      }
      std::stable_sort(sorted.begin(), sorted.end(),
                       [](const mpc::Envelope& x, const mpc::Envelope& y) {
                         return x.dest < y.dest;
                       });
    });
    stable.work = sorted.size();
    stable.bytes_moved = radix.bytes_moved;
    records.push_back(stable);

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

  // ---- Batch throughput: distance_batch vs sequential. ----
  bool rounds_ok = true;
  const std::int64_t ulam_n = smoke ? 256 : 2048;
  const std::int64_t edit_n = smoke ? 128 : 1024;
  // The kParallelGuess mode runs the whole ladder for every query;
  // at n=1024 that is ~300x the early-exit work, so it is recorded at a
  // smaller n.
  const std::int64_t edit_parallel_n = smoke ? 128 : 256;
  const std::size_t max_b = smoke ? 4 : 8;
  for (const bool ulam : {true, false}) {
    const std::int64_t n = ulam ? ulam_n : edit_n;
    for (const std::size_t b : {std::size_t{1}, max_b}) {
      bench_seq_point(records, ulam, n, b, wall_reps);
      rounds_ok = bench_batch_point(records, ulam, core::BatchMode::kThroughput,
                                    n, b, wall_reps) &&
                  rounds_ok;
    }
  }
  // The paper-literal mode, for the record (and the round shape check).
  if (edit_parallel_n != edit_n) {
    bench_seq_point(records, /*ulam=*/false, edit_parallel_n, max_b, wall_reps);
  }
  rounds_ok = bench_batch_point(records, /*ulam=*/false,
                                core::BatchMode::kParallelGuess,
                                edit_parallel_n, max_b, wall_reps) &&
              rounds_ok;

  // ---- Execution backends, thread pool vs forked processes. ----
  // The same batch workload per algorithm on both backends.  Everything
  // metered must agree bit for bit (checked here); only wall clock may
  // move, and the gates cap how far.
  const std::int64_t backend_n = smoke ? 128 : 2000;
  const std::size_t backend_b = smoke ? 2 : 4;
  for (const bool ulam : {true, false}) {
    const auto queries = make_batch_queries(backend_b, backend_n, ulam);
    const auto solve = [&](mpc::BackendKind backend) {
      core::BatchRequest request;
      request.algorithm =
          ulam ? core::BatchAlgorithm::kUlam : core::BatchAlgorithm::kEdit;
      request.mode = core::BatchMode::kThroughput;
      request.router = core::RouterPolicy::kOff;
      request.ulam.seed = 13;
      request.ulam.backend = backend;
      request.edit.backend = backend;
      request.recorder = &bench_recorder;
      request.queries = queries;
      return core::distance_batch(request);
    };
    const std::string algo = ulam ? "ulam" : "edit";
    core::BatchResult threaded;
    core::BatchResult forked;
    for (const bool process : {false, true}) {
      core::BatchResult& result = process ? forked : threaded;
      Record r{"backend",
               algo + (process ? "_batch_backend_process" : "_batch_backend_thread"),
               "throughput", backend_n, backend_b};
      time_into(r, Stat::kMedian, wall_reps, [&] {
        result = solve(process ? mpc::BackendKind::kProcess
                               : mpc::BackendKind::kThread);
      });
      r.work = result.trace.total_work();
      r.bytes_moved = result.trace.total_comm_bytes();
      r.rounds = result.trace.round_count();
      r.passes = result.passes;
      records.push_back(r);
    }

    if (forked.trace.structural_hash() != threaded.trace.structural_hash()) {
      std::fprintf(stderr, "FATAL: %s batch trace hash differs across backends\n",
                   algo.c_str());
      return 1;
    }
    for (std::size_t q = 0; q < queries.size(); ++q) {
      if (forked.queries[q].distance != threaded.queries[q].distance) {
        std::fprintf(stderr,
                     "FATAL: %s query %zu distance differs across backends\n",
                     algo.c_str(), q);
        return 1;
      }
    }
  }

  // ---- Router off vs auto on a skewed near-duplicate batch. ----
  // Three quarters of the pairs sit within edit distance 8 (including exact
  // duplicates); the tail is ~n/8 edits away.  Both runs pin an explicit
  // policy — the MPCSD_ROUTER env never reaches an explicit request.
  const std::int64_t router_n = smoke ? 128 : 2000;
  const std::size_t router_b = smoke ? 4 : 32;
  {
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
    Record off{"router", "edit_router_off", "throughput", router_n, router_b};
    time_into(off, Stat::kMedian, wall_reps, [&] {
      off_result = solve(core::RouterPolicy::kOff, &bench_recorder);
    });
    off.rounds = off_result.trace.round_count();
    off.passes = off_result.passes;
    records.push_back(off);

    core::BatchResult routed_result;
    Record routed{"router", "edit_router_auto", "throughput", router_n, router_b};
    time_into(routed, Stat::kMedian, wall_reps, [&] {
      routed_result = solve(core::RouterPolicy::kAuto, &bench_recorder);
    });
    routed.rounds = routed_result.trace.round_count();
    routed.passes = routed_result.passes;

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
    for (const char* name : {"router.examined", "router.retired_seq",
                             "router.probed", "router.lower_bounded",
                             "router.to_plan"}) {
      const auto it = decisions->counters().find(name);
      routed.counters.emplace_back(
          name, it == decisions->counters().end()
                    ? 0
                    : static_cast<std::uint64_t>(it->second.last));
    }
    const std::uint64_t examined = routed.counters[0].second;
    const std::uint64_t retired_seq = routed.counters[1].second;
    const std::uint64_t to_plan = routed.counters[4].second;
    // Degenerate pairs (equal / empty strings) resolve before the router,
    // so `examined` counts the rest — and every examined query must either
    // retire or go to the plan.
    if (examined > router_b || retired_seq + to_plan != examined) {
      std::fprintf(stderr,
                   "FATAL: router decision counts inconsistent: examined=%llu "
                   "retired=%llu to_plan=%llu (B=%zu)\n",
                   static_cast<unsigned long long>(examined),
                   static_cast<unsigned long long>(retired_seq),
                   static_cast<unsigned long long>(to_plan), router_b);
      return 1;
    }
    records.push_back(routed);
  }

  // ---- The gate table: wall(numerator) / wall(denominator) vs threshold. ----
  // Batch-vs-seq rows compare B queries each way, so the wall ratio is the
  // qps ratio.  Reasons for each threshold:
  //  * unit kernel >= 3x scalar, AVX2 Myers >= 2x scalar: the fast paths'
  //    reason to exist.
  //  * edit batch >= 0.5x sequential on any host: escalation is a *work*
  //    reduction (it skips the rungs past the accepted guess), so it holds
  //    even single-core.
  //  * batch >= 1x sequential with > 1 worker, Ulam >= 1.5x with >= 4: the
  //    shared rounds expose cross-query parallelism.
  //  * process backend <= 2x thread: fork + memfd-arena traffic is per
  //    round, so real batches amortise it or isolation has priced itself
  //    out.
  //  * router auto >= 3x off: near-duplicate probes are O(n + k*n/w) work
  //    against the ladder's full escalation; below 3x the cost model is
  //    mispriced.
  const std::int64_t kn = kernel_sizes.back();
  const Key edit_seq{"edit_seq", "seq", edit_n, max_b};
  const Key edit_bat{"edit_batch", "throughput", edit_n, max_b};
  const Key ulam_seq{"ulam_seq", "seq", ulam_n, max_b};
  const Key ulam_bat{"ulam_batch", "throughput", ulam_n, max_b};
  std::vector<Gate> gates = {
      {"unit_kernel_speedup", {"edit_unit_scalar", "", kn, 0},
       {"edit_unit_fast", "", kn, 0}, false, 3.0, "any host", true},
      {"myers_avx2_speedup", {"myers_scalar", "", isa_gate_n, 0},
       {"myers_avx2", "", isa_gate_n, 0}, false, 2.0, "isa >= avx2",
       detected_isa() >= Isa::kAvx2},
      {"edit_batch_vs_seq", edit_seq, edit_bat, false, 0.5, "any host", true},
      {"edit_batch_vs_seq_multiworker", edit_seq, edit_bat, false, 1.0,
       "workers > 1", workers > 1},
      {"ulam_batch_vs_seq_multiworker", ulam_seq, ulam_bat, false, 1.0,
       "workers > 1", workers > 1},
      {"ulam_batch_vs_seq_4workers", ulam_seq, ulam_bat, false, 1.5,
       "workers >= 4", workers >= 4},
      {"ulam_process_overhead",
       {"ulam_batch_backend_process", "throughput", backend_n, backend_b},
       {"ulam_batch_backend_thread", "throughput", backend_n, backend_b}, true,
       2.0, "any host", true},
      {"edit_process_overhead",
       {"edit_batch_backend_process", "throughput", backend_n, backend_b},
       {"edit_batch_backend_thread", "throughput", backend_n, backend_b}, true,
       2.0, "any host", true},
      {"router_auto_vs_off",
       {"edit_router_off", "throughput", router_n, router_b},
       {"edit_router_auto", "throughput", router_n, router_b}, false, 3.0,
       "any host", true},
  };
  for (Gate& g : gates) evaluate(g, records, smoke);

  if (!write_report(out_path, smoke, workers, records, gates)) {
    std::fprintf(stderr, "FAIL: cannot write %s\n", out_path.c_str());
    return 1;
  }
  print_report(out_path, smoke, workers, records, gates);
  if (!json_well_formed(out_path, records.size(), gates.size())) {
    std::fprintf(stderr, "FAIL: %s is not well-formed JSON\n", out_path.c_str());
    return 1;
  }
  if (!rounds_ok) {
    std::fprintf(stderr, "FAIL: a batch execution used extra simulator rounds\n");
    return 1;
  }
  bool gates_ok = true;
  for (const Gate& g : gates) {
    if (std::strcmp(g.result, "fail") != 0) continue;
    gates_ok = false;
    if (!g.missing.empty()) {
      std::fprintf(stderr, "FAIL: gate %s: no record %s\n", g.name, g.missing.c_str());
    } else {
      std::fprintf(stderr, "FAIL: gate %s: %.2fx, needs %s %.2fx\n", g.name,
                   g.value, g.at_most ? "<=" : ">=", g.threshold);
    }
  }
  return gates_ok ? 0 : 1;
}
