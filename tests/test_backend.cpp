// The pluggable execution-backend layer: kind parsing / resolution policy,
// thread/process byte equivalence on raw cluster rounds, the process pool's
// lifecycle (one fork per worker per cluster, refork for a body registered
// later, a fresh pool after a failed round), worker-failure propagation
// through the shared-memory arenas, and worker reaping.
#include <gtest/gtest.h>
#include <sys/wait.h>

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/bytes.hpp"
#include "common/thread_pool.hpp"
#include "common/timer.hpp"
#include "core/batch.hpp"
#include "core/workload.hpp"
#include "mpc/backend.hpp"
#include "mpc/cluster.hpp"
#include "mpc/plan.hpp"
#include "obs/sinks.hpp"

namespace mpcsd::mpc {
namespace {

Bytes payload_of(std::uint64_t v) {
  ByteWriter w;
  w.put(v);
  return std::move(w).take();
}

TEST(Backend, KindParsingRoundTrips) {
  for (const auto kind : {BackendKind::kAuto, BackendKind::kThread,
                          BackendKind::kProcess}) {
    const auto parsed = backend_from_string(backend_kind_name(kind));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, kind);
  }
  EXPECT_FALSE(backend_from_string("fork").has_value());
  EXPECT_FALSE(backend_from_string("tcp").has_value());
  EXPECT_FALSE(backend_from_string("socket").has_value());  // retired
  EXPECT_FALSE(backend_from_string("Thread").has_value());
  EXPECT_FALSE(backend_from_string("").has_value());
}

TEST(Backend, ResolutionPolicy) {
  // An explicit request wins outright; the environment is not consulted.
  for (const char* env : {static_cast<const char*>(nullptr), "process",
                          "thread", "socket", "bogus"}) {
    EXPECT_EQ(resolve_backend(BackendKind::kThread, env).kind,
              BackendKind::kThread);
    EXPECT_EQ(resolve_backend(BackendKind::kProcess, env).kind,
              BackendKind::kProcess);
    EXPECT_TRUE(resolve_backend(BackendKind::kProcess, env).recognised);
  }
  // kAuto resolves through the environment, defaulting to thread.
  EXPECT_EQ(resolve_backend(BackendKind::kAuto, nullptr).kind,
            BackendKind::kThread);
  EXPECT_EQ(resolve_backend(BackendKind::kAuto, "process").kind,
            BackendKind::kProcess);
  EXPECT_EQ(resolve_backend(BackendKind::kAuto, "thread").kind,
            BackendKind::kThread);
  // An unrecognised env value falls back to thread and is flagged so the
  // caller can warn instead of silently ignoring it.
  const BackendResolution bogus = resolve_backend(BackendKind::kAuto, "forky");
  EXPECT_EQ(bogus.kind, BackendKind::kThread);
  EXPECT_FALSE(bogus.recognised);
  // The retired socket backend is an unrecognised value like any typo.
  const BackendResolution socket = resolve_backend(BackendKind::kAuto, "socket");
  EXPECT_EQ(socket.kind, BackendKind::kThread);
  EXPECT_FALSE(socket.recognised);
  // "auto" in the environment is itself not a resolution; it means default.
  EXPECT_EQ(resolve_backend(BackendKind::kAuto, "auto").kind,
            BackendKind::kThread);
}

TEST(Backend, BackendsReportTheirNameAndTransport) {
  // Every backend owns a metered transport; the names pin the wire each
  // one uses (see docs/BACKENDS.md).
  auto pool = std::make_shared<ThreadPool>(2);
  const auto thread_backend = make_backend(BackendKind::kThread, pool, nullptr);
  EXPECT_STREQ(thread_backend->name(), "thread");
  EXPECT_STREQ(thread_backend->transport().name(), "inproc");
  const auto process_backend =
      make_backend(BackendKind::kProcess, pool, nullptr);
  EXPECT_STREQ(process_backend->name(), "process");
  EXPECT_STREQ(process_backend->transport().name(), "shm");
}

TEST(Backend, ProcessRoundByteIdenticalToThreadRound) {
  // Same round plan on both backends: routed mail (order, destinations,
  // payload bytes) and the metered trace hash must match.
  auto run = [](BackendKind backend, std::size_t workers) {
    ClusterConfig cfg;
    cfg.workers = workers;
    cfg.backend = backend;
    Cluster cluster(cfg);
    std::vector<Bytes> inputs;
    for (std::uint64_t i = 0; i < 64; ++i) inputs.push_back(payload_of(i));
    const Mail mail = cluster.run_round(
        "scatter", inputs,
        [](MachineContext& ctx) {
          auto r = ctx.reader();
          const auto v = r.get<std::uint64_t>();
          ctx.charge_work(static_cast<std::uint64_t>(v % 7));
          for (std::uint64_t k = 0; k < 3; ++k) {
            ByteWriter w;
            w.put(v * 100 + k);
            ctx.emit(static_cast<std::uint32_t>((v + k) % 16),
                     std::move(w).take());
          }
        });
    Bytes flat;
    for (const Envelope& e : mail.all()) {
      ByteWriter w;
      w.put(e.dest);
      flat.insert(flat.end(), e.payload.begin(), e.payload.end());
      const Bytes head = std::move(w).take();
      flat.insert(flat.end(), head.begin(), head.end());
    }
    return std::make_pair(std::move(flat), cluster.trace().structural_hash());
  };
  const auto base = run(BackendKind::kThread, 1);
  for (const auto backend : {BackendKind::kThread, BackendKind::kProcess}) {
    for (const std::size_t workers : {1ul, 3ul, 8ul}) {
      const auto got = run(backend, workers);
      EXPECT_EQ(got.first, base.first)
          << backend_kind_name(backend) << " x " << workers;
      EXPECT_EQ(got.second, base.second)
          << backend_kind_name(backend) << " x " << workers;
    }
  }
}

TEST(Backend, IsolatingBackendsPropagateBodyFailure) {
  // A body exception inside a forked worker must surface host-side with
  // its message, carried back through the worker's shared-memory arena.
  ClusterConfig cfg;
  cfg.workers = 2;
  cfg.backend = BackendKind::kProcess;
  Cluster cluster(cfg);
  std::vector<Bytes> inputs;
  for (std::uint64_t i = 0; i < 8; ++i) inputs.push_back(payload_of(i));
  try {
    cluster.run_round("doomed", inputs, [](MachineContext& ctx) {
      auto r = ctx.reader();
      if (r.get<std::uint64_t>() == 5) {
        throw std::runtime_error("machine 5 exploded");
      }
    });
    FAIL() << "expected the worker failure to propagate";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("machine body failed in worker process"),
              std::string::npos)
        << what;
    EXPECT_NE(what.find("machine 5 exploded"), std::string::npos) << what;
  }
}

TEST(Backend, IsolatedInboxIsReadOnly) {
  // A body that casts away its inbox view's const (mpcsd_verify's
  // conf-const-cast rule rejects this outside tests) faults on the worker's
  // read-only mapping of the input arena: the round fails, the host's input
  // bytes are untouched, and the next round over the same inputs sees the
  // original bytes.
  ClusterConfig cfg;
  cfg.workers = 2;
  cfg.backend = BackendKind::kProcess;
  Cluster cluster(cfg);
  std::vector<Bytes> inputs{payload_of(7), payload_of(8), payload_of(9)};
  const std::vector<Bytes> original = inputs;
  try {
    cluster.run_round("scribbler", inputs, [](MachineContext& ctx) {
      for (const ByteSpan part : ctx.input().parts()) {
        std::fill_n(const_cast<std::byte*>(part.data()), part.size(),
                    std::byte{0xFF});
      }
    });
    FAIL() << "expected the write to the read-only inbox to fail the round";
  } catch (const std::runtime_error& e) {
    // SIGSEGV, or the exit status a sanitizer runtime turns it into.
    const std::string what = e.what();
    EXPECT_NE(what.find("died before the round barrier"), std::string::npos)
        << what;
  }
  EXPECT_EQ(inputs, original);
  const Mail mail = cluster.run_round("echo", inputs, [](MachineContext& ctx) {
    ctx.emit(static_cast<std::uint32_t>(ctx.machine_id()),
             ctx.input().to_bytes());
  });
  for (std::uint32_t m = 0; m < inputs.size(); ++m) {
    EXPECT_EQ(gather_view(mail, m).to_bytes(), original[m]) << "machine " << m;
  }
}

/// The final `transport.forks` counter of one traced batch edit call (two
/// workers, escalation mode) and the call's round count.
std::pair<double, std::size_t> batch_edit_forks(BackendKind backend) {
  obs::Recorder recorder;
  const auto sink = std::make_shared<obs::AggregateSink>();
  recorder.add_sink(sink);
  core::BatchRequest request;
  request.algorithm = core::BatchAlgorithm::kEdit;
  request.mode = core::BatchMode::kThroughput;
  request.router = core::RouterPolicy::kOff;
  request.edit.x = 0.25;
  request.edit.epsilon = 1.0;
  request.edit.workers = 2;
  request.edit.backend = backend;
  request.recorder = &recorder;
  for (std::uint64_t q = 0; q < 3; ++q) {
    core::BatchQuery query;
    query.s = core::random_string(192, 8, 40 + q);
    query.t = core::plant_edits(query.s, 24 + 8 * static_cast<std::int64_t>(q),
                                50 + q, false)
                  .text;
    request.queries.push_back(std::move(query));
  }
  const core::BatchResult result = core::distance_batch(request);
  recorder.flush();
  return {sink->counters().at("transport.forks").last,
          result.trace.round_count()};
}

TEST(Backend, ProcessForksOncePerClusterNotPerRound) {
  // The process backend forks its workers in the cluster's first round and
  // keeps them: a multi-round batch call forks W workers, not W per round.
  const auto [process_forks, rounds] = batch_edit_forks(BackendKind::kProcess);
  ASSERT_GE(rounds, 6u);
  EXPECT_EQ(process_forks, 2.0) << rounds << " rounds";
  const auto [thread_forks, thread_rounds] = batch_edit_forks(BackendKind::kThread);
  EXPECT_EQ(thread_forks, 0.0);
  EXPECT_EQ(thread_rounds, rounds);
}

TEST(Backend, BodyRegisteredAfterForkReforksOnce) {
  // A worker knows the bodies registered before it forked; a round whose
  // body came later reforks the pool once, with the larger table.
  ClusterConfig cfg;
  cfg.workers = 2;
  cfg.backend = BackendKind::kProcess;
  Cluster cluster(cfg);
  std::vector<Bytes> inputs{payload_of(1), payload_of(2), payload_of(3)};
  const auto forks = [&] { return cluster.backend().transport().counters().forks; };
  const auto echo = [](MachineContext& ctx) {
    ctx.emit(0, ctx.input().to_bytes());
  };
  cluster.run_round("first", inputs, echo);
  EXPECT_EQ(forks(), 2u);
  cluster.run_round("later", inputs, [](MachineContext& ctx) {
    ctx.emit(1, ctx.input().to_bytes());
  });
  EXPECT_EQ(forks(), 4u);
  cluster.run_round("first-again", inputs, echo);
  EXPECT_EQ(forks(), 4u);
}

/// Mail flattened to (dest, payload) bytes, for byte-identity checks.
Bytes flatten(const Mail& mail) {
  ByteWriter w;
  for (const Envelope& e : mail.all()) {
    w.put(e.dest);
    w.put_vector(e.payload);
  }
  return std::move(w).take();
}

/// Emits input + 1 to mailbox (input % 4); throws on the input `poison`.
void poisoned_relay(MachineContext& ctx, const std::uint64_t& poison) {
  auto r = ctx.reader();
  const auto v = r.get<std::uint64_t>();
  if (v == poison) throw std::runtime_error("machine hit the poison value");
  ByteWriter w;
  w.put(v + 1);
  ctx.emit(static_cast<std::uint32_t>(v % 4), std::move(w).take());
}

std::vector<Bytes> relay_inputs() {
  std::vector<Bytes> inputs;
  for (std::uint64_t i = 0; i < 8; ++i) inputs.push_back(payload_of(i));
  return inputs;
}

TEST(Backend, BodyThrowReapsPoolAndNextRoundMatchesFreshCluster) {
  ClusterConfig cfg;
  cfg.workers = 2;
  cfg.backend = BackendKind::kProcess;
  const std::vector<Bytes> inputs = relay_inputs();
  constexpr std::uint64_t kNoPoison = UINT64_MAX;
  Cluster fresh(cfg);
  const Bytes want =
      flatten(fresh.run_round("relay", inputs, &poisoned_relay, kNoPoison));

  Cluster cluster(cfg);
  const auto forks = [&] { return cluster.backend().transport().counters().forks; };
  for (int round = 0; round < 2; ++round) {
    cluster.run_round("relay", inputs, &poisoned_relay, kNoPoison);
  }
  EXPECT_EQ(forks(), 2u);
  try {
    cluster.run_round("relay", inputs, &poisoned_relay, std::uint64_t{5});
    FAIL() << "expected the body failure to propagate";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("machine body failed in worker process"),
              std::string::npos)
        << what;
    EXPECT_NE(what.find("poison"), std::string::npos) << what;
  }
  const Bytes got =
      flatten(cluster.run_round("relay", inputs, &poisoned_relay, kNoPoison));
  EXPECT_EQ(got, want);
  EXPECT_EQ(forks(), 4u);  // the failed pool was reaped, a fresh one forked
}

/// Kills its own worker process on machine `victim`; echoes otherwise.
void suicidal_relay(MachineContext& ctx, const std::uint64_t& victim) {
  if (ctx.machine_id() == victim) ::raise(SIGKILL);
  ctx.emit(0, ctx.input().to_bytes());
}

TEST(Backend, KilledWorkerFailsRoundInBoundedTimeThenNextRoundSucceeds) {
  ClusterConfig cfg;
  cfg.workers = 2;
  cfg.backend = BackendKind::kProcess;
  Cluster cluster(cfg);
  const std::vector<Bytes> inputs = relay_inputs();
  constexpr std::uint64_t kNoVictim = UINT64_MAX;
  cluster.run_round("relay", inputs, &suicidal_relay, kNoVictim);
  const Stopwatch wall;
  try {
    cluster.run_round("relay", inputs, &suicidal_relay, std::uint64_t{6});
    FAIL() << "expected the dead worker to fail the round";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("died before the round barrier (signal 9)"),
              std::string::npos)
        << what;
  }
  EXPECT_LT(wall.seconds(), 30.0);
  const Mail mail = cluster.run_round("relay", inputs, &suicidal_relay, kNoVictim);
  EXPECT_EQ(mail.all().size(), inputs.size());
  EXPECT_EQ(cluster.backend().transport().counters().forks, 4u);
}

TEST(Backend, ProcessWorkersAllReapedAfterClusterDestruction) {
  // Runs after the failure tests above: workers are reaped when a round
  // fails and when their backend is destroyed, never leaked.  Once the
  // clusters are gone, the host has no child left, zombie or live.
  {
    ClusterConfig cfg;
    cfg.workers = 3;
    cfg.backend = BackendKind::kProcess;
    Cluster cluster(cfg);
    std::vector<Bytes> inputs;
    for (std::uint64_t i = 0; i < 6; ++i) inputs.push_back(payload_of(i));
    for (int round = 0; round < 3; ++round) {
      const Mail mail = cluster.run_round("relay", inputs, [](MachineContext& ctx) {
        auto r = ctx.reader();
        ByteWriter w;
        w.put(r.get<std::uint64_t>() + 1);
        ctx.emit(0, std::move(w).take());
      });
      EXPECT_EQ(mail.all().size(), inputs.size()) << "round " << round;
    }
    EXPECT_THROW(cluster.run_round("relay", inputs, &poisoned_relay, std::uint64_t{2}),
                 std::runtime_error);
    EXPECT_THROW(cluster.run_round("relay", inputs, &suicidal_relay, std::uint64_t{0}),
                 std::runtime_error);
  }
  errno = 0;
  EXPECT_EQ(::waitpid(-1, nullptr, WNOHANG), -1);
  EXPECT_EQ(errno, ECHILD);
}

}  // namespace
}  // namespace mpcsd::mpc
