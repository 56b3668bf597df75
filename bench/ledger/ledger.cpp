// mpcsd_ledger: the workload ledger benchmark (see README.md here).
//
//   mpcsd_ledger --workload NAME --seed N --seconds S --trace 0|1 --out FILE
//   mpcsd_ledger --smoke --out FILE
//
// A run measures one workload as a closed loop with one client: the next
// call starts when the previous one returns.  With --trace 0 it measures
// the end-to-end metrics, tracing off.  With --trace 1 it measures the
// per-layer metrics: an untraced loop, a traced loop whose spans attribute
// each call's wall to the library's layers, and timed probes of the
// layers' public entry points.  Every answer is checked against the exact
// distance.  The approximation ratios come from the warm-up, which runs a
// reference set of inputs that is the same for every seed, so they compare
// exactly between commits.  The record goes to --out (never into the
// source tree); run.py turns it into the benchmark's result line.
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "attribution.hpp"
#include "common/cpu.hpp"
#include "common/thread_pool.hpp"
#include "common/timer.hpp"
#include "core/router.hpp"
#include "obs/sinks.hpp"
#include "seq/edit_distance_fast.hpp"
#include "seq/edit_distance_os.hpp"
#include "seq/myers.hpp"
#include "seq/ulam.hpp"
#include "workloads.hpp"

extern char** environ;

namespace mpcsd::ledger {

namespace {

/// Fresh processes whose first call gives setup_s (their median).
constexpr int kColdStarts = 9;
/// Calls of edit_isolated rerun on the thread backend for the invariance
/// check.
constexpr std::size_t kInvarianceCalls = 8;
/// ThreadPool constructions whose median gives common.pool_spawn_s.
constexpr int kPoolSpawnReps = 100;
/// Untimed closed-loop seconds over the reference set before any timed
/// phase.
constexpr double kWarmupSeconds = 2.0;
/// Minimum seconds each layer probe repeats over the pool.
constexpr double kProbeSeconds = 0.25;
constexpr double kSmokeSeconds = 0.3;

/// Environment overrides that change what the library runs.  Requests pin
/// backend and router, but a run with any of these set is not comparable.
constexpr const char* kOverrides[] = {"MPCSD_FORCE_ISA", "MPCSD_BACKEND",
                                      "MPCSD_ROUTER"};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Tally {
  std::size_t attempted = 0;
  std::size_t failed = 0;
};

/// One workload run: the record body below the header.
struct Outcome {
  Tally tally;
  std::vector<Metric> metrics;
  std::size_t latency_samples = 0;
  std::map<LedgerSink::Key, LedgerSink::Rollup> spans;
};

std::size_t ledger_workers() {
  return std::max<std::size_t>(1, std::thread::hardware_concurrency() / 2);
}

/// Linear interpolation between closest ranks.
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = p * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (rank - static_cast<double>(lo));
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

/// Modelled quantities of a first pass over a pool (deterministic for its
/// seed), plus the measured approximation ratios.
struct ModelStats {
  std::size_t calls = 0;
  std::size_t queries = 0;
  double rounds = 0.0;
  double work = 0.0;
  double comm = 0.0;
  double passes = 0.0;
  double rungs = 0.0;
  double guesses = 0.0;
  double peak_mem_frac = 0.0;
  double ratio_sum = 0.0;
  double ratio_max = 0.0;
  double max_machine_work = 0.0;   ///< Σ over rounds
  double mean_machine_work = 0.0;  ///< Σ over rounds
  std::size_t machines_max = 0;

  void add(const Call& call, const CallResult& r) {
    ++calls;
    queries += call.size();
    rounds += static_cast<double>(r.trace.round_count());
    work += static_cast<double>(r.trace.total_work());
    comm += static_cast<double>(r.trace.total_comm_bytes());
    passes += static_cast<double>(r.passes);
    rungs += static_cast<double>(r.rungs);
    guesses += static_cast<double>(r.guesses);
    for (std::size_t q = 0; q < call.size(); ++q) {
      peak_mem_frac = std::max(peak_mem_frac, r.mem_frac[q]);
      const double a = approx_ratio(r.distances[q], call[q].exact);
      ratio_sum += a;
      ratio_max = std::max(ratio_max, a);
    }
    for (const mpc::RoundReport& round : r.trace.rounds()) {
      if (round.machines == 0) continue;
      max_machine_work += static_cast<double>(round.max_machine_work);
      mean_machine_work += static_cast<double>(round.total_work) /
                           static_cast<double>(round.machines);
    }
    machines_max = std::max(machines_max, r.trace.max_machines());
  }
};

struct Loop {
  std::vector<double> latencies;
  std::size_t queries = 0;
  double elapsed = 0.0;
};

/// Closed loop over the pool for at least `seconds` and `min_calls` calls.
/// `visit(i, call, result, wall)` sees every call that returned, outside
/// its timing; a call that throws fails all of its queries.
template <typename Visit>
Loop closed_loop(const Workload& w, const std::vector<Call>& pool,
                 double seconds, std::size_t min_calls, obs::Recorder* recorder,
                 Tally& tally, Visit&& visit) {
  Loop loop;
  const Stopwatch phase;
  for (std::size_t i = 0; i < min_calls || phase.seconds() < seconds; ++i) {
    const Call& call = pool[i % pool.size()];
    CallResult result;
    bool ok = true;
    const Stopwatch wall;
    try {
      result = run_call(w, call, ledger_workers(), recorder);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "mpcsd_ledger: %s call %zu threw: %s\n", w.name, i,
                   e.what());
      ok = false;
    }
    const double t = wall.seconds();
    loop.latencies.push_back(t);
    loop.queries += call.size();
    tally.attempted += call.size();
    const std::size_t failed = ok ? count_failures(w, call, result) : call.size();
    tally.failed += failed;
    if (ok && result.distances.size() == call.size()) visit(i, call, result, t);
  }
  loop.elapsed = phase.seconds();
  return loop;
}

/// Backend invariance: on its first calls, edit_isolated must answer
/// exactly like the thread backend on the same inputs, with the same
/// structural hash.
void check_invariance(const Workload& w, const std::vector<Call>& pool,
                      const std::vector<CallResult>& isolated, Tally& tally) {
  Workload thread = w;
  thread.backend = mpc::BackendKind::kThread;
  for (std::size_t c = 0; c < isolated.size(); ++c) {
    const CallResult r = run_call(thread, pool[c], ledger_workers(), nullptr);
    tally.attempted += pool[c].size();
    const bool same = r.distances == isolated[c].distances &&
                      r.trace.structural_hash() == isolated[c].trace.structural_hash();
    tally.failed += same ? 0 : pool[c].size();
  }
}

std::int64_t steady_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// --cold: builds the first call's inputs, makes the call, and prints the
/// steady-clock time at which it returned (the clock is system-wide, so the
/// parent subtracts its spawn time).  Exit 3 on a wrong answer.
int cold_main(const Workload& w, std::uint64_t seed) {
  std::vector<Call> pool = make_pool(w, seed, 1);
  const CallResult r = run_call(w, pool[0], ledger_workers(), nullptr);
  const std::int64_t ready = steady_ns();
  fill_exact(w, pool);
  std::printf("%lld\n", static_cast<long long>(ready));
  return count_failures(w, pool[0], r) == 0 ? 0 : 3;
}

/// setup_s samples: spawn -> first call returned, one fresh process each.
std::vector<double> cold_starts(const std::string& self, const Workload& w,
                                std::uint64_t seed, bool smoke, Tally& tally) {
  std::vector<double> samples;
  std::vector<std::string> args = {self, "--cold", w.name, "--seed",
                                   std::to_string(seed)};
  if (smoke) args.emplace_back("--smoke");
  for (int k = 0; k < kColdStarts; ++k) {
    tally.attempted += w.batch;
    int fds[2] = {-1, -1};
    if (::pipe(fds) != 0) {
      tally.failed += w.batch;
      continue;
    }
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_addclose(&actions, fds[0]);
    posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
    posix_spawn_file_actions_addclose(&actions, fds[1]);
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    pid_t pid = -1;
    const std::int64_t spawned = steady_ns();
    const int rc =
        posix_spawn(&pid, self.c_str(), &actions, nullptr, argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    ::close(fds[1]);
    std::string out;
    char buf[256];
    ssize_t got = 0;
    while (rc == 0 && (got = ::read(fds[0], buf, sizeof(buf))) != 0) {
      if (got > 0) out.append(buf, static_cast<std::size_t>(got));
      else if (errno != EINTR) break;
    }
    ::close(fds[0]);
    int status = 0;
    if (rc == 0) {
      while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
      }
    }
    const long long ready = std::atoll(out.c_str());
    if (rc != 0 || !WIFEXITED(status) || WEXITSTATUS(status) != 0 || ready <= spawned) {
      std::fprintf(stderr, "mpcsd_ledger: cold start %d of %s failed\n", k, w.name);
      tally.failed += w.batch;
      continue;
    }
    samples.push_back(static_cast<double>(ready - spawned) * 1e-9);
  }
  return samples;
}

double peak_rss_mb() {
  rusage self{};
  rusage children{};
  ::getrusage(RUSAGE_SELF, &self);
  ::getrusage(RUSAGE_CHILDREN, &children);
  return static_cast<double>(std::max(self.ru_maxrss, children.ru_maxrss)) / 1024.0;
}

/// Mean seconds of `fn(pair, first_pass)` over every pair of the pool,
/// repeating whole passes for at least `seconds`.  `fn` returns false on a
/// wrong value; every checked value counts as an attempt.
template <typename Fn>
double per_pair_seconds(const std::vector<Call>& pool, double seconds,
                        Tally& tally, Fn&& fn) {
  std::size_t calls = 0;
  bool first_pass = true;
  const Stopwatch sw;
  do {
    for (const Call& call : pool) {
      for (const Pair& pair : call) {
        if (!fn(pair, first_pass)) ++tally.failed;
        ++calls;
      }
    }
    first_pass = false;
  } while (sw.seconds() < seconds);
  const double elapsed = sw.seconds();
  tally.attempted += calls;
  return elapsed / static_cast<double>(calls);
}

/// Per-layer sums over the traced loop's calls.
struct LayerSums {
  std::size_t calls = 0;
  double wall = 0.0;
  Attribution a;
  double glue = 0.0;
  double frames = 0.0;
  double bytes = 0.0;
  double barrier_waits = 0.0;
  double pool_tasks = 0.0;

  void add(double call_wall, const Attribution& x, const CallEvents& events,
           const std::vector<mpc::RoundReport>& rounds) {
    ++calls;
    wall += call_wall;
    a += x;
    for (const mpc::RoundReport& r : rounds) glue += r.driver_seconds;
    frames += counter_total(events, "transport.frames_sent") +
              counter_total(events, "transport.frames_received");
    bytes += counter_total(events, "transport.bytes_sent") +
             counter_total(events, "transport.bytes_received");
    barrier_waits += counter_total(events, "transport.barrier_waits");
    pool_tasks += counter_total(events, "pool.tasks_enqueued");
  }
};

std::vector<double> walls_of(const std::vector<mpc::RoundReport>& rounds) {
  std::vector<double> walls;
  for (const mpc::RoundReport& r : rounds) walls.push_back(r.wall_seconds);
  return walls;
}

/// The traced loop: every call's spans attribute its wall to the layers.
struct Traced {
  Loop loop;
  LayerSums sums;
  std::map<LedgerSink::Key, LedgerSink::Rollup> spans;
};

Traced traced_loop(const Workload& w, const std::vector<Call>& pool,
                   double seconds, Tally& tally) {
  // The single-query solver's guesses are replayed on a second recorder for
  // their rounds (see replay_guesses).
  obs::Recorder recorder;
  const auto sink = std::make_shared<LedgerSink>();
  recorder.add_sink(sink);
  obs::Recorder replay_recorder;
  const auto replay_sink = std::make_shared<LedgerSink>();
  replay_recorder.add_sink(replay_sink);
  Traced t;
  const bool batch = w.api != Api::kSingleEdit;
  t.loop = closed_loop(
      w, pool, seconds, 1, &recorder, tally,
      [&](std::size_t, const Call& call, const CallResult& r, double wall) {
        const CallEvents events = sink->take_call();
        if (batch) {
          const std::vector<double> walls = walls_of(r.trace.rounds());
          const Attribution a = attribute(wall, events.spans, &walls, true);
          if (a.round_spans != r.trace.round_count()) ++tally.failed;
          t.sums.add(wall, a, events, r.trace.rounds());
          return;
        }
        Attribution a = attribute(wall, events.spans, nullptr, false);
        const auto replay =
            replay_guesses(w, call.at(0), r, ledger_workers(), &replay_recorder);
        const CallEvents replayed = replay_sink->take_call();
        std::vector<mpc::RoundReport> rounds;
        for (const mpc::ExecutionTrace& trace : replay.value_or(
                 std::vector<mpc::ExecutionTrace>{})) {
          rounds.insert(rounds.end(), trace.rounds().begin(), trace.rounds().end());
        }
        // Only the replay's round split is used: its rounds ran the same
        // machines as the call's.  A replay that disagrees with the call
        // leaves the call's round time unattributed.
        const std::vector<double> walls = walls_of(rounds);
        const Attribution rep = attribute(0.0, replayed.spans, &walls, false);
        if (replay && rep.round_spans == rounds.size() &&
            a.round_spans == rounds.size()) {
          a.cluster_self = rep.cluster_self;
          a.exec = rep.exec;
        }
        t.sums.add(wall, a, events, rounds);
      });
  t.spans = sink->rollup();
  return t;
}

/// The public entry points of the layers on the workload's path, timed on
/// the pool's pairs (seconds per pair), their values checked against the
/// exact edit (or Ulam) distance, and the counts of their first pass.
/// Entry points off the path are not probed and read 0: the edit kernels
/// on the Ulam workload, the router where it is off.
struct Probes {
  double os_s = 0.0;
  double os_cells = 0.0;
  double myers_s = 0.0;
  double bounded_s = 0.0;
  double bounded_cells = 0.0;
  double ulam_s = 0.0;
  double prefilter_s = 0.0;
  double route_s = 0.0;
  bool routed = false;  ///< the router is on the path
  double retired = 0.0;
  double probed = 0.0;
  double probe_retired = 0.0;
  double pool_spawn_s = 0.0;
};

Probes probe_layers(const Workload& w, const std::vector<Call>& pool,
                    double seconds, Tally& tally) {
  Probes p;
  if (w.api == Api::kBatchUlam) {
    p.ulam_s = per_pair_seconds(pool, seconds, tally, [&](const Pair& pair, bool) {
      return seq::ulam_distance(pair.s, pair.t) == pair.exact;
    });
  } else {
    p.os_s = per_pair_seconds(pool, seconds, tally, [&](const Pair& pair, bool first) {
      std::uint64_t work = 0;
      const std::int64_t d = seq::edit_distance_output_sensitive(pair.s, pair.t, &work);
      if (first) p.os_cells += static_cast<double>(work);
      return d == pair.exact_edit;
    });
    p.myers_s = per_pair_seconds(pool, seconds, tally, [&](const Pair& pair, bool) {
      return seq::edit_distance_myers(pair.s, pair.t) == pair.exact_edit;
    });
    p.bounded_s = per_pair_seconds(pool, seconds, tally, [&](const Pair& pair, bool first) {
      std::uint64_t work = 0;
      const auto d = seq::edit_distance_bounded_fast(pair.s, pair.t, pair.planted, &work);
      if (first) p.bounded_cells += static_cast<double>(work);
      return d == pair.exact_edit;
    });
  }
  p.routed = w.router != core::RouterPolicy::kOff;
  if (p.routed) {
    p.prefilter_s = per_pair_seconds(pool, seconds, tally, [&](const Pair& pair, bool) {
      return core::prefilter_query(pair.s, pair.t).lower_bound <= pair.exact_edit;
    });
    p.route_s = per_pair_seconds(pool, seconds, tally, [&](const Pair& pair, bool first) {
      const core::RouteDecision d =
          core::route_query(pair.s, pair.t, w.router, w.batch, ledger_workers());
      if (first) {
        p.retired += d.retire ? 1.0 : 0.0;
        p.probed += d.probed ? 1.0 : 0.0;
        p.probe_retired += (d.retire && d.probed) ? 1.0 : 0.0;
      }
      return d.retire ? d.distance == pair.exact_edit : d.lower_bound <= pair.exact_edit;
    });
  }
  std::vector<double> spawns;
  for (int k = 0; k < kPoolSpawnReps; ++k) {
    const Stopwatch sw;
    { const ThreadPool spawned(ledger_workers()); }
    spawns.push_back(sw.seconds());
  }
  p.pool_spawn_s = percentile(spawns, 0.5);
  return p;
}

std::vector<Metric> layer_metrics(const ModelStats& model, const Loop& untraced,
                                  const Traced& t, const Probes& p,
                                  const Tally& tally) {
  const LayerSums& sums = t.sums;
  const double calls = static_cast<double>(std::max<std::size_t>(1, sums.calls));
  const double pairs = static_cast<double>(model.queries);
  const auto stage_s = [&](const char* label) {
    const auto it = sums.a.stage_totals.find(label);
    return it == sums.a.stage_totals.end() ? 0.0 : it->second / calls;
  };
  return {
      {"seq.os_s", p.os_s, "s"},
      {"seq.os_cells", ratio(p.os_cells, pairs), "cells"},
      {"seq.myers_s", p.myers_s, "s"},
      {"seq.bounded_fast_s", p.bounded_s, "s"},
      {"seq.bounded_fast_cells", ratio(p.bounded_cells, pairs), "cells"},
      {"seq.ulam_s", p.ulam_s, "s"},
      {"core.router.prefilter_s", p.prefilter_s, "s"},
      {"core.router.route_s", p.route_s, "s"},
      {"core.router.self_s", sums.a.router_self / calls, "s"},
      {"core.router.retired_frac", ratio(p.retired, pairs), "frac"},
      {"core.router.probed_frac", ratio(p.probed, pairs), "frac"},
      {"core.router.probe_yield", ratio(p.probe_retired, p.probed), "frac"},
      {"core.router.to_plan_frac", p.routed ? ratio(pairs - p.retired, pairs) : 0.0,
       "frac"},
      {"core.batch.passes", ratio(model.passes, static_cast<double>(model.calls)), "count"},
      {"core.batch.rungs_per_query", ratio(model.rungs, pairs), "count"},
      {"core.batch.self_s", sums.a.batch_self / calls, "s"},
      {"mpc.exec_s", sums.a.exec / calls, "s"},
      {"mpc.glue_s", sums.glue / calls, "s"},
      {"mpc.cluster_self_s", sums.a.cluster_self / calls, "s"},
      {"mpc.plan_self_s", sums.a.plan_self / calls, "s"},
      {"mpc.work_skew", ratio(model.max_machine_work, model.mean_machine_work), "ratio"},
      {"mpc.machines_max", static_cast<double>(model.machines_max), "count"},
      {"mpc.transport_frames", sums.frames / calls, "count"},
      {"mpc.transport_bytes", sums.bytes / calls, "bytes"},
      {"mpc.barrier_waits", sums.barrier_waits / calls, "count"},
      {"ulam_mpc.candidates_s", stage_s("batch:ulam:candidates"), "s"},
      {"ulam_mpc.combine_s", stage_s("batch:ulam:combine"), "s"},
      {"edit_mpc.guesses_per_query", ratio(model.guesses, pairs), "count"},
      {"edit_mpc.solver_self_s", sums.a.solver_self / calls, "s"},
      {"edit_mpc.pipeline_self_s", sums.a.pipeline_self / calls, "s"},
      {"common.pool_spawn_s", p.pool_spawn_s, "s"},
      {"common.pool_tasks", sums.pool_tasks / calls, "count"},
      {"obs.trace_overhead_frac",
       ratio(percentile(t.loop.latencies, 0.5), percentile(untraced.latencies, 0.5)) - 1.0,
       "frac"},
      {"ledger.unattributed_frac", 1.0 - ratio(sums.a.attributed(), sums.wall), "frac"},
      {"rounds_per_batch", ratio(model.rounds, static_cast<double>(model.calls)), "count"},
      {"work_per_query", ratio(model.work, pairs), "ops"},
      {"comm_bytes_per_query", ratio(model.comm, pairs), "bytes"},
      {"peak_mem_frac", model.peak_mem_frac, "frac"},
      {"failed_frac",
       ratio(static_cast<double>(tally.failed), static_cast<double>(tally.attempted)), "frac"},
  };
}

Outcome run_workload(const std::string& self, const Workload& w,
                     std::uint64_t seed, double seconds, bool trace, bool smoke) {
  Outcome out;
  Tally& tally = out.tally;
  std::vector<Call> pool = make_pool(w, seed, w.pool);
  fill_exact(w, pool);
  std::vector<Call> reference = make_pool(w, kReferenceSeed, w.reference);
  fill_exact(w, reference);

  // Warm-up over the reference set: lazy set-up finishes (setup_s measures
  // it) and the host's CPUs leave their idle state; the first second after
  // idle runs up to 2x slower.  Its first pass gives the approximation
  // ratios.
  ModelStats quality;
  (void)closed_loop(w, reference, smoke ? 0.0 : kWarmupSeconds, reference.size(),
                    nullptr, tally,
                    [&](std::size_t i, const Call& call, const CallResult& r, double) {
                      if (i < reference.size()) quality.add(call, r);
                    });

  // The untraced loop makes at least one pass, which gives the model stats.
  ModelStats model;
  std::vector<CallResult> isolated(
      w.backend == mpc::BackendKind::kProcess ? std::min(pool.size(), kInvarianceCalls) : 0);
  const Loop untraced = closed_loop(
      w, pool, trace ? seconds / 2 : seconds, pool.size(), nullptr, tally,
      [&](std::size_t i, const Call& call, CallResult& r, double) {
        if (i >= pool.size()) return;
        model.add(call, r);
        if (i < isolated.size()) isolated[i] = std::move(r);
      });
  check_invariance(w, pool, isolated, tally);

  // Throughput and latency of the untraced loop.  Consecutive runs spread
  // by more than 10% on a shared host, so BENCHMARK.json lists them per
  // layer; --trace 0 records them too, for its full-length loop.
  out.latency_samples = untraced.latencies.size();
  out.metrics = {
      {"qps", ratio(static_cast<double>(untraced.queries), untraced.elapsed), "1/s"},
      {"latency_p50_s", percentile(untraced.latencies, 0.5), "s"},
      {"latency_p90_s", percentile(untraced.latencies, 0.9), "s"},
  };
  if (trace) {
    Traced traced = traced_loop(w, pool, seconds / 2, tally);
    const Probes probes = probe_layers(w, pool, smoke ? 0.0 : kProbeSeconds, tally);
    for (Metric& m : layer_metrics(model, untraced, traced, probes, tally)) {
      out.metrics.push_back(std::move(m));
    }
    out.spans = std::move(traced.spans);
    return out;
  }
  const std::vector<double> setup = cold_starts(self, w, seed, smoke, tally);
  out.metrics.insert(
      out.metrics.end(),
      {{"setup_s", percentile(setup, 0.5), "s"},
       {"peak_rss_mb", peak_rss_mb(), "MB"},
       {"approx_ratio_mean", ratio(quality.ratio_sum, static_cast<double>(quality.queries)),
        "ratio"},
       {"approx_ratio_max", quality.ratio_max, "ratio"}});
  return out;
}

std::string json_str(const std::string& s) { return "\"" + obs::json_escape(s) + "\""; }

std::string outcome_json(const Workload& w, const Outcome& o) {
  std::string j = "{\"name\": " + json_str(w.name) +
                  ", \"n\": " + std::to_string(w.n) +
                  ", \"batch\": " + std::to_string(w.batch) +
                  ", \"pool\": " + std::to_string(w.pool) +
                  ", \"reference\": " + std::to_string(w.reference) +
                  ", \"router\": " + json_str(core::router_policy_name(w.router)) +
                  ", \"backend\": " + json_str(mpc::backend_kind_name(w.backend)) +
                  ", \"correct\": " + (o.tally.failed == 0 ? "true" : "false") +
                  ", \"attempted\": " + std::to_string(o.tally.attempted) +
                  ", \"failed\": " + std::to_string(o.tally.failed) +
                  ", \"latency_samples\": " + std::to_string(o.latency_samples) +
                  ", \"metrics\": {";
  for (std::size_t i = 0; i < o.metrics.size(); ++i) {
    const Metric& m = o.metrics[i];
    j += (i == 0 ? "" : ", ") + json_str(m.name) +
         ": {\"value\": " + obs::json_number(m.value) + ", \"unit\": " + json_str(m.unit) + "}";
  }
  j += "}, \"spans\": [";
  bool first = true;
  for (const auto& [key, r] : o.spans) {
    j += std::string(first ? "" : ", ") + "{\"category\": " + json_str(key.first) +
         ", \"name\": " + json_str(key.second) + ", \"count\": " + std::to_string(r.count) +
         ", \"total_us\": " + std::to_string(r.total_us) + "}";
    first = false;
  }
  return j + "]}";
}

struct Options {
  std::string workload;
  std::string cold;  ///< internal: --cold NAME, one first call in a fresh process
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  std::string out;
  std::string git_sha = "unknown";
};

std::string header_json(const Options& opt) {
  std::string overrides;
  for (const char* var : kOverrides) {
    const char* value = std::getenv(var);
    if (value == nullptr) continue;
    overrides += (overrides.empty() ? "" : ", ") + json_str(var) + ": " + json_str(value);
  }
  return "{\"bench\": \"mpcsd_ledger\", \"schema\": 1, \"nproc\": " +
         std::to_string(std::thread::hardware_concurrency()) +
         ", \"workers\": " + std::to_string(ledger_workers()) +
         ", \"isa_detected\": " + json_str(isa_name(detected_isa())) +
         ", \"isa_active\": " + json_str(isa_name(active_isa())) +
         ", \"build_type\": " + json_str(MPCSD_LEDGER_BUILD_TYPE) +
         ", \"git_sha\": " + json_str(opt.git_sha) +
         ", \"seed\": " + std::to_string(opt.seed) +
         ", \"seconds\": " + obs::json_number(opt.seconds) +
         ", \"trace\": " + (opt.trace ? "1" : "0") +
         ", \"smoke\": " + (opt.smoke ? "true" : "false") +
         ", \"overrides\": {" + overrides + "}" +
         ", \"comparable\": " + (overrides.empty() && !opt.smoke ? "true" : "false") + "}";
}

bool within(const std::filesystem::path& path, const std::filesystem::path& dir) {
  return std::mismatch(dir.begin(), dir.end(), path.begin(), path.end()).first ==
         dir.end();
}

/// --out may not land in the source tree, except under this build's own
/// directory (which may sit inside the source tree).
bool out_path_allowed(const std::string& out) {
  namespace fs = std::filesystem;
  const fs::path path = fs::weakly_canonical(fs::absolute(out));
  return !within(path, fs::weakly_canonical(MPCSD_LEDGER_SOURCE_ROOT)) ||
         within(path, fs::weakly_canonical(MPCSD_LEDGER_BINARY_DIR));
}

int usage() {
  std::fprintf(stderr,
               "usage: mpcsd_ledger --workload NAME --seed N --seconds S --trace 0|1 "
               "--out FILE [--git-sha SHA]\n"
               "       mpcsd_ledger --smoke --out FILE\n"
               "workloads:");
  for (const Workload& w : all_workloads(false)) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

int ledger_main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--smoke") {
      opt.smoke = true;
    } else if (arg == "--workload" && has_value) {
      opt.workload = argv[++i];
    } else if (arg == "--cold" && has_value) {
      opt.cold = argv[++i];
    } else if (arg == "--seed" && has_value) {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      opt.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      opt.trace = std::string(argv[++i]) == "1";
    } else if (arg == "--out" && has_value) {
      opt.out = argv[++i];
    } else if (arg == "--git-sha" && has_value) {
      opt.git_sha = argv[++i];
    } else {
      return usage();
    }
  }
  if (!opt.cold.empty()) {
    const auto w = find_workload(opt.cold, opt.smoke);
    return w ? cold_main(*w, opt.seed) : usage();
  }
  if (opt.out.empty() || !(opt.seconds > 0.0)) return usage();
  if (!out_path_allowed(opt.out)) {
    std::fprintf(stderr, "mpcsd_ledger: --out %s is inside the source tree\n",
                 opt.out.c_str());
    return 2;
  }

  std::vector<Workload> selected;
  if (opt.smoke) {
    selected = all_workloads(true);
    opt.seconds = kSmokeSeconds;
  } else if (const auto w = find_workload(opt.workload, false)) {
    selected.push_back(*w);
  } else {
    return usage();
  }

  bool correct = true;
  std::string record = "{\"header\": " + header_json(opt) + ", \"workloads\": [";
  for (std::size_t k = 0; k < selected.size(); ++k) {
    const Workload& w = selected[k];
    std::fprintf(stderr, "mpcsd_ledger: %s (seed %llu, %.1f s, trace %d)\n", w.name,
                 static_cast<unsigned long long>(opt.seed), opt.seconds,
                 opt.trace ? 1 : 0);
    Outcome o;
    if (opt.smoke) {
      // Smoke runs both halves and checks every metric in one record; a
      // metric both halves measure keeps the first half's value.
      o = run_workload(argv[0], w, opt.seed, opt.seconds, false, true);
      Outcome layers = run_workload(argv[0], w, opt.seed, opt.seconds, true, true);
      o.tally.attempted += layers.tally.attempted;
      o.tally.failed += layers.tally.failed;
      for (Metric& m : layers.metrics) {
        const bool seen = std::any_of(o.metrics.begin(), o.metrics.end(),
                                      [&](const Metric& x) { return x.name == m.name; });
        if (!seen) o.metrics.push_back(std::move(m));
      }
      o.spans = std::move(layers.spans);
    } else {
      o = run_workload(argv[0], w, opt.seed, opt.seconds, opt.trace, false);
    }
    correct = correct && o.tally.failed == 0;
    record += (k == 0 ? "" : ", ") + outcome_json(w, o);
  }
  record += "]}\n";

  std::ofstream file(opt.out, std::ios::binary | std::ios::trunc);
  file << record;
  file.close();
  if (!file) {
    std::fprintf(stderr, "mpcsd_ledger: cannot write %s\n", opt.out.c_str());
    return 2;
  }
  return correct ? 0 : 1;
}

}  // namespace

}  // namespace mpcsd::ledger

int main(int argc, char** argv) {
  try {
    return mpcsd::ledger::ledger_main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mpcsd_ledger: %s\n", e.what());
    return 2;
  }
}
