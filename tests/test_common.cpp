// Unit tests for the support library: serialization, RNG, Fenwick trees,
// geometric grids, and the thread pool.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#if defined(__linux__)
#include <unistd.h>
#endif

#include "common/bytes.hpp"
#include "common/contracts.hpp"
#include "common/cpu.hpp"
#include "common/fenwick.hpp"
#include "common/grid.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"

namespace mpcsd {
namespace {

TEST(Bytes, RoundTripScalars) {
  ByteWriter w;
  w.put<std::int64_t>(-42);
  w.put<std::uint32_t>(7);
  w.put<double>(3.25);
  const Bytes buf = std::move(w).take();

  ByteReader r(buf);
  EXPECT_EQ(r.get<std::int64_t>(), -42);
  EXPECT_EQ(r.get<std::uint32_t>(), 7u);
  EXPECT_EQ(r.get<double>(), 3.25);
  EXPECT_TRUE(r.exhausted());
}

TEST(Bytes, RoundTripVectorAndString) {
  ByteWriter w;
  const std::vector<std::int32_t> v{1, -2, 3};
  w.put_vector(v);
  w.put_string("hello");
  const Bytes buf = std::move(w).take();

  ByteReader r(buf);
  EXPECT_EQ(r.get_vector<std::int32_t>(), v);
  EXPECT_EQ(r.get_string(), "hello");
  EXPECT_TRUE(r.exhausted());
}

TEST(Bytes, EmptyVectorRoundTrip) {
  ByteWriter w;
  w.put_vector(std::vector<std::int64_t>{});
  ByteReader r(w.bytes());
  EXPECT_TRUE(r.get_vector<std::int64_t>().empty());
}

TEST(Bytes, OverReadThrows) {
  ByteWriter w;
  w.put<std::int32_t>(1);
  ByteReader r(w.bytes());
  (void)r.get<std::int32_t>();
  EXPECT_THROW((void)r.get<std::int32_t>(), ContractViolation);
}

TEST(Bytes, ConcatPreservesOrder) {
  ByteWriter a;
  a.put<std::int32_t>(1);
  ByteWriter b;
  b.put<std::int32_t>(2);
  const Bytes merged = concat({a.bytes(), b.bytes()});
  ByteReader r(merged);
  EXPECT_EQ(r.get<std::int32_t>(), 1);
  EXPECT_EQ(r.get<std::int32_t>(), 2);
}

TEST(Rng, Deterministic) {
  Pcg32 a = derive_stream(1, 2, 3);
  Pcg32 b = derive_stream(1, 2, 3);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, StreamsDiffer) {
  Pcg32 a = derive_stream(1, 2, 3);
  Pcg32 b = derive_stream(1, 2, 4);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next() == b.next());
  EXPECT_LT(same, 4);
}

TEST(Rng, BelowIsInRangeAndCoversValues) {
  Pcg32 rng(42, 54);
  std::set<std::uint32_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.below(7);
    ASSERT_LT(v, 7u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, UniformInclusiveRange) {
  Pcg32 rng(1, 2);
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform(-3, 3);
    ASSERT_GE(v, -3);
    ASSERT_LE(v, 3);
  }
}

TEST(Rng, BernoulliExtremes) {
  Pcg32 rng(9, 9);
  for (int i = 0; i < 32; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(Rng, BernoulliRateApproximatelyCorrect) {
  Pcg32 rng(7, 8);
  int hits = 0;
  const int trials = 20000;
  for (int i = 0; i < trials; ++i) hits += rng.bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / trials, 0.3, 0.02);
}

TEST(FenwickMin, PrefixMinMatchesBruteForce) {
  Pcg32 rng(5, 6);
  const std::size_t n = 64;
  FenwickMin<std::int64_t> fen(n);
  std::vector<std::int64_t> ref(n, std::numeric_limits<std::int64_t>::max());
  for (int step = 0; step < 500; ++step) {
    const std::size_t i = rng.below(n);
    const auto v = static_cast<std::int64_t>(rng.below(1000)) - 500;
    fen.update(i, v);
    ref[i] = std::min(ref[i], v);
    const std::size_t q = rng.below(n);
    std::int64_t expected = std::numeric_limits<std::int64_t>::max();
    for (std::size_t k = 0; k <= q; ++k) expected = std::min(expected, ref[k]);
    ASSERT_EQ(fen.prefix_min(q), expected) << "query " << q;
  }
}

TEST(FenwickMin, ResetResizesAndClears) {
  FenwickMin<std::int64_t> fen(4);
  fen.update(1, -7);
  fen.reset(9);
  EXPECT_EQ(fen.size(), 9U);
  EXPECT_EQ(fen.prefix_min(8), std::numeric_limits<std::int64_t>::max());
  fen.update(8, 3);
  EXPECT_EQ(fen.prefix_min(7), std::numeric_limits<std::int64_t>::max());
  EXPECT_EQ(fen.prefix_min(8), 3);
  EXPECT_THROW(fen.update(9, 0), ContractViolation);
}

struct PayloadEntry {
  std::int64_t v;
  int tag;
  friend bool operator<(const PayloadEntry& a, const PayloadEntry& b) {
    return a.v < b.v;
  }
};

TEST(FenwickMin, CustomPayloadIdentity) {
  using Entry = PayloadEntry;
  FenwickMin<Entry> fen(8, Entry{1 << 30, -1});
  EXPECT_EQ(fen.prefix_min(7).tag, -1);
  fen.update(3, Entry{5, 42});
  fen.update(5, Entry{7, 43});
  EXPECT_EQ(fen.prefix_min(7).tag, 42);
  EXPECT_EQ(fen.prefix_min(2).tag, -1);
}

TEST(FenwickSum, RangeSums) {
  FenwickSum<std::int64_t> fen(10);
  for (std::size_t i = 0; i < 10; ++i) fen.add(i, static_cast<std::int64_t>(i));
  EXPECT_EQ(fen.prefix_sum(9), 45);
  EXPECT_EQ(fen.range_sum(3, 5), 3 + 4 + 5);
  EXPECT_EQ(fen.range_sum(5, 3), 0);
}

TEST(Grid, ContainsZeroOneAndLimit) {
  const auto g = geometric_grid(1000, 0.3);
  EXPECT_EQ(g.front(), 0);
  EXPECT_TRUE(std::find(g.begin(), g.end(), 1) != g.end());
  EXPECT_EQ(g.back(), 1000);
  EXPECT_TRUE(std::is_sorted(g.begin(), g.end()));
  EXPECT_EQ(std::adjacent_find(g.begin(), g.end()), g.end()) << "duplicates";
}

TEST(Grid, CoversEveryValueWithinFactor) {
  const double eps = 0.25;
  const auto g = geometric_grid(5000, eps);
  for (std::int64_t v = 1; v <= 5000; v += 7) {
    // Some grid point in [v/(1+eps), v].
    const auto it = std::upper_bound(g.begin(), g.end(), v);
    ASSERT_NE(it, g.begin());
    const double lo = static_cast<double>(v) / (1.0 + eps) - 1.0;
    EXPECT_GE(static_cast<double>(*(it - 1)), lo) << "v=" << v;
  }
}

TEST(Grid, RoundUp) {
  const auto g = geometric_grid(100, 0.5);
  EXPECT_EQ(grid_round_up(g, 0), 0);
  for (std::int64_t v = 1; v <= 100; ++v) {
    const auto r = grid_round_up(g, v);
    EXPECT_GE(r, v);
  }
}

TEST(Grid, IntegerPowers) {
  EXPECT_EQ(ipow(1000, 0.5), 31);
  EXPECT_EQ(ipow_ceil(1000, 0.5), 32);
  EXPECT_EQ(ipow(0, 0.5), 0);
  EXPECT_EQ(ipow(1024, 1.0), 1024);
  EXPECT_EQ(ceil_div(10, 3), 4);
  EXPECT_EQ(ceil_div(9, 3), 3);
  EXPECT_EQ(ceil_div(0, 3), 0);
}

TEST(ThreadPool, RunsAllIndices) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(100);
  pool.parallel_for(100, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, PropagatesException) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for(10,
                                 [](std::size_t i) {
                                   if (i == 5) throw std::runtime_error("boom");
                                 }),
               std::runtime_error);
}

TEST(ThreadPool, SingleWorkerStillCompletes) {
  ThreadPool pool(1);
  std::atomic<int> total{0};
  pool.parallel_for(1000, [&](std::size_t) { total.fetch_add(1); });
  EXPECT_EQ(total.load(), 1000);
}

TEST(ThreadPool, WaitIdleReturnsOnceEveryWorkerIsParked) {
  // Must return for a fresh pool (workers still starting) and after calls
  // that leave straggler tasks queued, and leave the pool usable.
  ThreadPool pool(4);
  pool.wait_idle();
  std::atomic<int> total{0};
  for (int call = 0; call < 50; ++call) {
    pool.parallel_for(64, [&](std::size_t) { total.fetch_add(1); });
    pool.wait_idle();
  }
  EXPECT_EQ(total.load(), 50 * 64);
}

TEST(ThreadPool, ZeroCountNoOp) {
  ThreadPool pool(2);
  pool.parallel_for(0, [](std::size_t) { FAIL(); });
}

TEST(ThreadPool, GrainLargerThanCountRunsInline) {
  // count <= grain takes the serial fast path: every index still runs
  // exactly once, in order, on the calling thread.
  ThreadPool pool(4);
  const auto caller = std::this_thread::get_id();
  std::vector<std::size_t> order;
  pool.parallel_for(
      5,
      [&](std::size_t i) {
        EXPECT_EQ(std::this_thread::get_id(), caller);
        order.push_back(i);
      },
      /*grain=*/64);
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(ThreadPool, InlinePathStillPropagatesException) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_for(
                   3,
                   [](std::size_t i) {
                     if (i == 1) throw std::runtime_error("inline boom");
                   },
                   /*grain=*/64),
               std::runtime_error);
}

TEST(ThreadPool, InlinePathCancelsAfterFirstThrow) {
  // The serial path mirrors the pool path's cancel-on-first-error
  // semantics: the FIRST exception reaches the caller and the remaining
  // iteration space is not charged for.
  ThreadPool pool(1);
  std::vector<std::size_t> ran;
  try {
    pool.parallel_for(4, [&](std::size_t i) {
      ran.push_back(i);
      throw std::out_of_range("index " + std::to_string(i));
    });
    FAIL() << "expected a rethrow";
  } catch (const std::out_of_range& e) {
    EXPECT_STREQ(e.what(), "index 0");
  }
  EXPECT_EQ(ran, (std::vector<std::size_t>{0}));
}

TEST(ThreadPool, PoolSurvivesThrowingBodiesAndStaysUsable) {
  // A throwing body must never terminate the process or wedge a worker:
  // after an exceptional call the same pool completes later work exactly.
  ThreadPool pool(3);
  for (int attempt = 0; attempt < 3; ++attempt) {
    EXPECT_THROW(pool.parallel_for(64,
                                   [&](std::size_t i) {
                                     if (i % 7 == 3) {
                                       throw std::runtime_error("worker boom");
                                     }
                                   }),
                 std::runtime_error);
    std::atomic<int> total{0};
    pool.parallel_for(128, [&](std::size_t) { total.fetch_add(1); });
    EXPECT_EQ(total.load(), 128);
  }
}

TEST(ThreadPool, CancellationSkipsUnclaimedIndices) {
  // With grain 1 and an immediate throw, the cancelled call must not run
  // anywhere near the whole iteration space (already-claimed chunks may
  // finish, so allow a small overshoot proportional to workers).
  ThreadPool pool(4);
  std::atomic<std::size_t> ran{0};
  EXPECT_THROW(pool.parallel_for(100000,
                                 [&](std::size_t) {
                                   ran.fetch_add(1);
                                   throw std::runtime_error("first");
                                 }),
               std::runtime_error);
  EXPECT_LT(ran.load(), 100000u);
}

TEST(ThreadPool, ResultsIndependentOfWorkerCount) {
  // The same body over the same range must produce identical output for
  // any pool size — the invariant that lets drivers parallelize encode /
  // routing work without perturbing metered results.
  auto run = [](std::size_t workers) {
    ThreadPool pool(workers);
    std::vector<std::uint64_t> out(257);
    pool.parallel_for(
        out.size(),
        [&](std::size_t i) { out[i] = i * 2654435761u + (i << 7); },
        /*grain=*/8);
    return out;
  };
  const auto reference = run(1);
  EXPECT_EQ(run(3), reference);
  EXPECT_EQ(run(7), reference);
}

TEST(Contracts, ViolationThrows) {
  EXPECT_THROW(MPCSD_EXPECTS(false), ContractViolation);
  EXPECT_NO_THROW(MPCSD_EXPECTS(true));
}

// ---- ISA override resolution (MPCSD_FORCE_ISA policy) ----

TEST(Cpu, OverrideUnsetKeepsDetectedLevel) {
  const IsaOverride r = resolve_isa_override(nullptr, Isa::kAvx2);
  EXPECT_TRUE(r.recognised);
  EXPECT_EQ(r.level, Isa::kAvx2);
}

TEST(Cpu, OverrideClampsDownNeverUp) {
  // Forcing below the detected level wins; forcing above clamps to it
  // (the override can never select an illegal instruction).
  EXPECT_EQ(resolve_isa_override("scalar", Isa::kAvx512).level, Isa::kScalar);
  EXPECT_EQ(resolve_isa_override("avx512", Isa::kScalar).level, Isa::kScalar);
  EXPECT_TRUE(resolve_isa_override("avx512", Isa::kScalar).recognised);
}

TEST(Cpu, UnrecognisedOverrideFallsBackToDetectedAndFlags) {
  // "avx3" and friends used to be silently ignored; the resolver now
  // reports them so the dispatch initialiser can warn on stderr.
  for (const char* bad : {"avx3", "AVX2", "", "neon"}) {
    const IsaOverride r = resolve_isa_override(bad, Isa::kAvx2);
    EXPECT_FALSE(r.recognised) << bad;
    EXPECT_EQ(r.level, Isa::kAvx2) << bad;
  }
}

TEST(Cpu, ActiveIsaAtMostDetected) {
  EXPECT_LE(static_cast<int>(active_isa()), static_cast<int>(detected_isa()));
}

TEST(Cpu, UnrecognisedEnvValueWarnsOnStderrOnce) {
#if defined(__linux__)
  // End-to-end: a child process with a bogus MPCSD_FORCE_ISA must print
  // the warning (when its lazy dispatch init runs) and still pass on the
  // detected level.  Resolve our own binary path first — /proc/self/exe
  // inside a std::system() shell names the shell, not this test.
  char self[4096];
  const ssize_t len = ::readlink("/proc/self/exe", self, sizeof(self) - 1);
  ASSERT_GT(len, 0);
  self[len] = '\0';
  const std::string cmd =
      std::string("MPCSD_FORCE_ISA=avx3 '") + self +
      "' --gtest_filter=Cpu.ActiveIsaAtMostDetected >/dev/null "
      "2>/tmp/mpcsd_isa_warn && "
      "grep -q \"MPCSD_FORCE_ISA='avx3'\" /tmp/mpcsd_isa_warn";
  const int rc = std::system(cmd.c_str());
  EXPECT_EQ(rc, 0);
#else
  GTEST_SKIP() << "self-exec probe is Linux-only";
#endif
}

}  // namespace
}  // namespace mpcsd
