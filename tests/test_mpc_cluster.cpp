// The MPC simulator: round semantics, deterministic mail routing, memory
// accounting and caps, work metering, and trace composition.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <numeric>

#include "common/rng.hpp"
#include "mpc/cluster.hpp"
#include "mpc/stats.hpp"

namespace mpcsd::mpc {
namespace {

Bytes payload_of(std::int64_t v) {
  ByteWriter w;
  w.put(v);
  return std::move(w).take();
}

// Copying gather, local to this test: the library routes mailboxes through
// `gather_view`; tests still want owned bytes to compare payloads directly.
Bytes gather(const Mail& mail, std::uint32_t dest) {
  return gather_view(mail, dest).to_bytes();
}

/// Machine `id`'s emissions in the 16-bit router test: one envelope to
/// each of its `span` destinations, then one to the hot destination 0.
template <typename Sink>
void emit_span_plan(std::int64_t id, std::size_t span, Sink&& sink) {
  for (std::size_t k = 0; k < span; ++k) {
    ByteWriter w;
    w.put(id);
    w.put(static_cast<std::int64_t>(k));
    sink(static_cast<std::uint32_t>(static_cast<std::size_t>(id) * span + k),
         std::move(w).take());
  }
  ByteWriter w;
  w.put(id);
  w.put<std::int64_t>(-1);
  sink(0, std::move(w).take());
}

TEST(Cluster, SingleRoundEcho) {
  Cluster cluster(ClusterConfig{});
  std::vector<Bytes> inputs{payload_of(1), payload_of(2), payload_of(3)};
  const auto mail = cluster.run_round("echo", inputs, [](MachineContext& ctx) {
    auto r = ctx.reader();
    const auto v = r.get<std::int64_t>();
    ByteWriter w;
    w.put(v * 10);
    ctx.emit(0, std::move(w).take());
  });
  const Bytes merged = gather(mail, 0);
  ByteReader r(merged);
  EXPECT_EQ(r.get<std::int64_t>(), 10);
  EXPECT_EQ(r.get<std::int64_t>(), 20);
  EXPECT_EQ(r.get<std::int64_t>(), 30);
  EXPECT_EQ(cluster.trace().round_count(), 1u);
  EXPECT_EQ(cluster.trace().rounds()[0].machines, 3u);
}

TEST(Cluster, MailOrderIsDeterministicAcrossRuns) {
  auto run_once = [] {
    Cluster cluster(ClusterConfig{{.workers = 4},
                                  /*memory_limit_bytes=*/UINT64_MAX, /*seed=*/5});
    std::vector<Bytes> inputs;
    for (std::int64_t i = 0; i < 50; ++i) inputs.push_back(payload_of(i));
    const auto mail = cluster.run_round("m", inputs, [](MachineContext& ctx) {
      auto r = ctx.reader();
      ByteWriter w;
      w.put(r.get<std::int64_t>());
      ctx.emit(0, std::move(w).take());
    });
    return gather(mail, 0);
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(Cluster, MachineRngIsDeterministicPerMachine) {
  auto sample = [](std::size_t workers) {
    Cluster cluster(ClusterConfig{{.workers = workers},
                                  /*memory_limit_bytes=*/UINT64_MAX, /*seed=*/42});
    std::vector<Bytes> inputs(8);
    const auto mail = cluster.run_round("rng", inputs, [](MachineContext& ctx) {
      ctx.emit(0, payload_of(ctx.rng().next()));
    });
    return gather(mail, 0);
  };
  EXPECT_EQ(sample(1), sample(4));  // independent of scheduling
}

TEST(Cluster, MemoryAccountingCountsInputAndOutput) {
  Cluster cluster(ClusterConfig{});
  std::vector<Bytes> inputs{Bytes(100)};
  cluster.run_round("mem", inputs, [](MachineContext& ctx) {
    ctx.emit(0, Bytes(40));
    ctx.charge_scratch(60);
  });
  const RoundReport& r = cluster.trace().rounds()[0];
  EXPECT_EQ(r.max_machine_memory, 200u);
  EXPECT_EQ(r.total_comm_bytes, 40u);
  EXPECT_EQ(r.total_input_bytes, 100u);
}

TEST(Cluster, StrictMemoryThrows) {
  Cluster cluster(ClusterConfig{{.workers = 1, .strict_memory = true},
                                /*memory_limit_bytes=*/50, /*seed=*/0});
  std::vector<Bytes> inputs{Bytes(100)};
  EXPECT_THROW(cluster.run_round("boom", inputs, [](MachineContext&) {}),
               MemoryLimitExceeded);
}

TEST(Cluster, NonStrictMemoryRecordsViolation) {
  Cluster cluster(ClusterConfig{{.workers = 1},
                                /*memory_limit_bytes=*/50, /*seed=*/0});
  std::vector<Bytes> inputs{Bytes(100), Bytes(10)};
  cluster.run_round("soft", inputs, [](MachineContext&) {});
  EXPECT_EQ(cluster.trace().rounds()[0].memory_violations, 1u);
}

TEST(Cluster, WorkMetering) {
  Cluster cluster(ClusterConfig{});
  std::vector<Bytes> inputs(3);
  cluster.run_round("work", inputs, [](MachineContext& ctx) {
    ctx.charge_work(10 * (ctx.machine_id() + 1));
  });
  const RoundReport& r = cluster.trace().rounds()[0];
  EXPECT_EQ(r.total_work, 60u);
  EXPECT_EQ(r.max_machine_work, 30u);
}

TEST(Cluster, MultipleMailboxes) {
  Cluster cluster(ClusterConfig{});
  std::vector<Bytes> inputs(4);
  const auto mail = cluster.run_round("route", inputs, [](MachineContext& ctx) {
    ByteWriter w;
    w.put<std::uint64_t>(ctx.machine_id());
    ctx.emit(static_cast<std::uint32_t>(ctx.machine_id() % 2), std::move(w).take());
  });
  EXPECT_EQ(mail.at(0).size(), 2u);
  EXPECT_EQ(mail.at(1).size(), 2u);
  EXPECT_TRUE(gather(mail, 99).empty());
}

TEST(Cluster, ParallelRouterMatchesStableSortByteExact) {
  // The radix router (per-chunk counting histograms + stable scatter) must
  // keep `Mail` byte-identical to a global std::stable_sort of the
  // emissions: same envelope order, same payload bytes, same per-dest
  // spans — across worker counts, skewed dest distributions, and envelope
  // counts straddling the radix-route threshold (512).  The reference is
  // rebuilt here from the deterministic emission schedule, independent of
  // any Cluster code path.
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    for (const std::size_t machines : {40u, 200u, 700u}) {
      ClusterConfig serial_cfg;
      serial_cfg.workers = 1;
      serial_cfg.seed = 99;
      ClusterConfig parallel_cfg;
      parallel_cfg.workers = 5;
      parallel_cfg.seed = 99;
      Cluster serial(serial_cfg);
      Cluster parallel(parallel_cfg);

      std::vector<Bytes> inputs;
      for (std::size_t i = 0; i < machines; ++i) {
        inputs.push_back(payload_of(static_cast<std::int64_t>(i)));
      }
      // Each machine emits a deterministic skewed burst: most messages
      // pile onto a handful of hot mailboxes, the tail spreads out.
      const auto body = [](MachineContext& ctx, const std::uint64_t& seed) {
        auto r = ctx.reader();
        const auto id = r.get<std::int64_t>();
        Pcg32 rng(seed * 1000003u + static_cast<std::uint64_t>(id), 54u);
        const std::size_t burst = 1 + rng.next() % 7;
        for (std::size_t m = 0; m < burst; ++m) {
          const bool hot = rng.next() % 4 != 0;  // 3/4 of traffic to 3 dests
          const auto dest = hot ? static_cast<std::uint32_t>(rng.next() % 3)
                                : static_cast<std::uint32_t>(rng.next() % 64);
          ByteWriter w;
          w.put(id);
          w.put(static_cast<std::int64_t>(m));
          ctx.emit(dest, std::move(w).take());
        }
      };
      // Independent reference: replay the emission schedule in (machine,
      // emission) order and globally stable-sort by destination.
      std::vector<Envelope> ref;
      for (std::size_t id = 0; id < machines; ++id) {
        Pcg32 rng(seed * 1000003u + id, 54u);
        const std::size_t burst = 1 + rng.next() % 7;
        for (std::size_t m = 0; m < burst; ++m) {
          const bool hot = rng.next() % 4 != 0;
          const auto dest = hot ? static_cast<std::uint32_t>(rng.next() % 3)
                                : static_cast<std::uint32_t>(rng.next() % 64);
          ByteWriter w;
          w.put(static_cast<std::int64_t>(id));
          w.put(static_cast<std::int64_t>(m));
          ref.push_back(Envelope{dest, std::move(w).take()});
        }
      }
      std::stable_sort(ref.begin(), ref.end(),
                       [](const Envelope& a, const Envelope& b) {
                         return a.dest < b.dest;
                       });

      const auto want = serial.run_round("route", inputs, body, seed);
      const auto got = parallel.run_round("route", inputs, body, seed);

      ASSERT_EQ(want.message_count(), ref.size())
          << "seed " << seed << " machines " << machines;
      ASSERT_EQ(got.message_count(), ref.size())
          << "seed " << seed << " machines " << machines;
      for (std::size_t i = 0; i < ref.size(); ++i) {
        ASSERT_EQ(want.all()[i].dest, ref[i].dest) << "envelope " << i;
        ASSERT_EQ(want.all()[i].payload, ref[i].payload) << "envelope " << i;
        ASSERT_EQ(got.all()[i].dest, ref[i].dest) << "envelope " << i;
        ASSERT_EQ(got.all()[i].payload, ref[i].payload) << "envelope " << i;
      }
      for (std::uint32_t dest = 0; dest < 64; ++dest) {
        ASSERT_EQ(gather(got, dest), gather(want, dest)) << "dest " << dest;
      }
    }
  }
}

TEST(Cluster, RadixRouterWideDestsTwoPass) {
  // Destinations past 2^16 force the router's second (high-bits) radix
  // pass; sparse, clustered, and boundary-adjacent dest values must still
  // come out exactly stable-sorted.  Also covers payload-size skew: one
  // machine emits megabyte-class payloads so the byte-weighted chunk
  // balancing path runs.
  for (const std::size_t workers : {1u, 5u}) {
    ClusterConfig cfg;
    cfg.workers = workers;
    Cluster cluster(cfg);
    const std::size_t machines = 300;
    std::vector<Bytes> inputs;
    for (std::size_t i = 0; i < machines; ++i) {
      inputs.push_back(payload_of(static_cast<std::int64_t>(i)));
    }
    const auto body = [](MachineContext& ctx) {
      auto r = ctx.reader();
      const auto id = r.get<std::int64_t>();
      Pcg32 rng(7u + static_cast<std::uint64_t>(id), 11u);
      const std::size_t burst = 2 + rng.next() % 4;
      for (std::size_t m = 0; m < burst; ++m) {
        // Mix of low dests, dests straddling the 16-bit pass boundary, and
        // sparse high dests up to ~2^20.
        const std::uint64_t pick = rng.next() % 3;
        std::uint32_t dest = 0;
        if (pick == 0) {
          dest = static_cast<std::uint32_t>(rng.next() % 8);
        } else if (pick == 1) {
          dest = 65534 + static_cast<std::uint32_t>(rng.next() % 4);
        } else {
          dest = static_cast<std::uint32_t>(rng.next() % (1u << 20));
        }
        ByteWriter w;
        w.put(id);
        w.put(static_cast<std::int64_t>(m));
        if (id == 17) w.put_vector(Bytes(1 << 20, std::byte{0x5a}));
        ctx.emit(dest, std::move(w).take());
      }
    };
    const auto mail = cluster.run_round("wide", inputs, body);

    std::vector<Envelope> ref;
    for (std::size_t id = 0; id < machines; ++id) {
      Pcg32 rng(7u + id, 11u);
      const std::size_t burst = 2 + rng.next() % 4;
      for (std::size_t m = 0; m < burst; ++m) {
        const std::uint64_t pick = rng.next() % 3;
        std::uint32_t dest = 0;
        if (pick == 0) {
          dest = static_cast<std::uint32_t>(rng.next() % 8);
        } else if (pick == 1) {
          dest = 65534 + static_cast<std::uint32_t>(rng.next() % 4);
        } else {
          dest = static_cast<std::uint32_t>(rng.next() % (1u << 20));
        }
        ByteWriter w;
        w.put(static_cast<std::int64_t>(id));
        w.put(static_cast<std::int64_t>(m));
        if (id == 17) w.put_vector(Bytes(1 << 20, std::byte{0x5a}));
        ref.push_back(Envelope{dest, std::move(w).take()});
      }
    }
    std::stable_sort(ref.begin(), ref.end(),
                     [](const Envelope& a, const Envelope& b) {
                       return a.dest < b.dest;
                     });

    ASSERT_EQ(mail.message_count(), ref.size()) << "workers " << workers;
    for (std::size_t i = 0; i < ref.size(); ++i) {
      ASSERT_EQ(mail.all()[i].dest, ref[i].dest)
          << "workers " << workers << " envelope " << i;
      ASSERT_EQ(mail.all()[i].payload, ref[i].payload)
          << "workers " << workers << " envelope " << i;
    }
  }
}

TEST(Cluster, RadixRouterExactly16BitDestRangeSinglePass) {
  // Exactly 65536 distinct destinations: bit_width of the dest OR is 16,
  // the single-pass boundary of the radix router.  Every dest in the full
  // low-16-bit space gets one envelope, and dest 0 additionally gets one
  // per machine (machine order pins stability).  Byte-identical to a
  // global stable sort of the emission schedule.
  for (const std::size_t workers : {1u, 4u}) {
    ClusterConfig cfg;
    cfg.workers = workers;
    Cluster cluster(cfg);
    const std::size_t machines = 128;
    const std::size_t span = 65536 / machines;
    std::vector<Bytes> inputs;
    for (std::size_t i = 0; i < machines; ++i) {
      inputs.push_back(payload_of(static_cast<std::int64_t>(i)));
    }
    const auto mail = cluster.run_round(
        "route:16bit", inputs,
        [](MachineContext& ctx, const std::size_t& width) {
          auto r = ctx.reader();
          const auto id = r.get<std::int64_t>();
          emit_span_plan(id, width, [&](std::uint32_t dest, Bytes payload) {
            ctx.emit(dest, std::move(payload));
          });
        },
        span);

    std::vector<Envelope> ref;
    for (std::size_t id = 0; id < machines; ++id) {
      emit_span_plan(static_cast<std::int64_t>(id), span,
                     [&](std::uint32_t dest, Bytes payload) {
                       ref.push_back(Envelope{dest, std::move(payload)});
                     });
    }
    std::stable_sort(ref.begin(), ref.end(),
                     [](const Envelope& a, const Envelope& b) {
                       return a.dest < b.dest;
                     });

    ASSERT_EQ(mail.message_count(), ref.size()) << "workers " << workers;
    for (std::size_t i = 0; i < ref.size(); ++i) {
      ASSERT_EQ(mail.all()[i].dest, ref[i].dest)
          << "workers " << workers << " envelope " << i;
      ASSERT_EQ(mail.all()[i].payload, ref[i].payload)
          << "workers " << workers << " envelope " << i;
    }
    // Payloads are two int64s (16 bytes).  Dest 0 is the hot destination
    // (one per machine plus machine 0's span slot); 65535 is the top of
    // the covered range.
    EXPECT_EQ(gather(mail, 0).size(), (machines + 1) * 16);
    EXPECT_EQ(gather(mail, 65535).size(), 16u);
  }
}

TEST(Cluster, RadixRouterDest65536TriggersSecondPassByteExact) {
  // One envelope to dest 65536 pushes the dest OR past 16 bits, flipping
  // the router into its two-pass (high-bits) mode for the whole round; the
  // result must stay byte-identical to the stable-sort reference.
  for (const std::size_t workers : {1u, 4u}) {
    ClusterConfig cfg;
    cfg.workers = workers;
    Cluster cluster(cfg);
    const std::size_t machines = 600;  // above the radix-route threshold
    std::vector<Bytes> inputs;
    for (std::size_t i = 0; i < machines; ++i) {
      inputs.push_back(payload_of(static_cast<std::int64_t>(i)));
    }
    static constexpr auto dest_of = [](std::int64_t id) {
      if (id == 299) return std::uint32_t{65536};  // the boundary breaker
      return static_cast<std::uint32_t>((id * 131) % 65536);
    };
    const auto mail =
        cluster.run_round("route:65536", inputs, [](MachineContext& ctx) {
          auto r = ctx.reader();
          const auto id = r.get<std::int64_t>();
          ByteWriter w;
          w.put(id);
          ctx.emit(dest_of(id), std::move(w).take());
        });

    std::vector<Envelope> ref;
    for (std::size_t id = 0; id < machines; ++id) {
      ByteWriter w;
      w.put(static_cast<std::int64_t>(id));
      ref.push_back(Envelope{dest_of(static_cast<std::int64_t>(id)),
                             std::move(w).take()});
    }
    std::stable_sort(ref.begin(), ref.end(),
                     [](const Envelope& a, const Envelope& b) {
                       return a.dest < b.dest;
                     });

    ASSERT_EQ(mail.message_count(), ref.size()) << "workers " << workers;
    for (std::size_t i = 0; i < ref.size(); ++i) {
      ASSERT_EQ(mail.all()[i].dest, ref[i].dest)
          << "workers " << workers << " envelope " << i;
      ASSERT_EQ(mail.all()[i].payload, ref[i].payload)
          << "workers " << workers << " envelope " << i;
    }
    EXPECT_EQ(gather(mail, 65536).size(), sizeof(std::int64_t));
  }
}

TEST(Cluster, ArenaCapacityDecaysAfterBurstRound) {
  // Round-scoped arenas (outbox slots, route scratch) grow to a burst
  // round's high-water mark and used to stay there for the cluster's
  // lifetime.  After sustained low usage they must be released.
  ClusterConfig cfg;
  cfg.workers = 2;
  Cluster cluster(cfg);
  std::vector<Bytes> inputs;
  for (std::size_t i = 0; i < 4; ++i) {
    inputs.push_back(payload_of(static_cast<std::int64_t>(i)));
  }
  // Burst: one machine emits tens of thousands of envelopes, pinning
  // megabyte-class slot capacity that a plain clear() keeps allocated.
  cluster.run_round("burst", inputs, [](MachineContext& ctx) {
    auto r = ctx.reader();
    const auto id = r.get<std::int64_t>();
    if (id != 0) return;
    for (std::int64_t m = 0; m < 50000; ++m) {
      ByteWriter w;
      w.put(m);
      ctx.emit(static_cast<std::uint32_t>(m % 7), std::move(w).take());
    }
  });
  const std::size_t after_burst = cluster.arena_footprint_bytes();
  const auto lean = [](MachineContext& ctx) {
    auto r = ctx.reader();
    const auto id = r.get<std::int64_t>();
    ByteWriter w;
    w.put(id);
    ctx.emit(0, std::move(w).take());
  };
  // Longer than the decay window of consecutive low-usage rounds.
  for (int round = 0; round < 12; ++round) {
    cluster.run_round("lean", inputs, lean);
  }
  EXPECT_LT(cluster.arena_footprint_bytes(), after_burst / 4);
}

TEST(Cluster, RouterZeroEnvelopeRound) {
  // A round where no machine emits anything: empty mail, empty gathers,
  // and no crash in either routing path.
  for (const std::size_t workers : {1u, 4u}) {
    ClusterConfig cfg;
    cfg.workers = workers;
    Cluster cluster(cfg);
    std::vector<Bytes> inputs;
    for (std::size_t i = 0; i < 9; ++i) {
      inputs.push_back(payload_of(static_cast<std::int64_t>(i)));
    }
    const auto mail =
        cluster.run_round("route:silent", inputs, [](MachineContext& ctx) {
          auto r = ctx.reader();
          (void)r.get<std::int64_t>();
          ctx.charge_work(1);
        });
    EXPECT_EQ(mail.message_count(), 0u);
    EXPECT_TRUE(mail.all().empty());
    EXPECT_TRUE(gather(mail, 0).empty());
  }
}

TEST(Cluster, RouterSingleDestinationKeepsEmissionOrder) {
  // Every envelope lands on one mailbox, with enough of them to engage the
  // radix path: the routed order must equal the (machine, emission) order,
  // i.e. stable-sort with a constant key is the identity.
  for (const std::size_t workers : {1u, 4u}) {
    ClusterConfig cfg;
    cfg.workers = workers;
    Cluster cluster(cfg);
    const std::size_t machines = 700;  // above the radix-route threshold
    std::vector<Bytes> inputs;
    for (std::size_t i = 0; i < machines; ++i) {
      inputs.push_back(payload_of(static_cast<std::int64_t>(i)));
    }
    const auto mail =
        cluster.run_round("route:onedest", inputs, [](MachineContext& ctx) {
          auto r = ctx.reader();
          const auto id = r.get<std::int64_t>();
          for (std::int64_t m = 0; m < 2; ++m) {
            ByteWriter w;
            w.put(id);
            w.put(m);
            ctx.emit(3, std::move(w).take());
          }
        });
    ASSERT_EQ(mail.message_count(), 2 * machines);
    for (std::size_t i = 0; i < 2 * machines; ++i) {
      ASSERT_EQ(mail.all()[i].dest, 3u);
      ByteReader r(mail.all()[i].payload);
      EXPECT_EQ(r.get<std::int64_t>(), static_cast<std::int64_t>(i / 2));
      EXPECT_EQ(r.get<std::int64_t>(), static_cast<std::int64_t>(i % 2));
    }
  }
}

TEST(Trace, SequentialAppend) {
  ExecutionTrace a;
  a.add_round(RoundReport{.label = "r1", .machines = 3, .max_machine_memory = 10,
                          .total_comm_bytes = 5, .total_input_bytes = 7,
                          .total_work = 100, .max_machine_work = 50,
                          .wall_seconds = 0, .memory_violations = 0});
  ExecutionTrace b;
  b.add_round(RoundReport{.label = "r2", .machines = 5, .max_machine_memory = 20,
                          .total_comm_bytes = 6, .total_input_bytes = 8,
                          .total_work = 200, .max_machine_work = 60,
                          .wall_seconds = 0, .memory_violations = 1});
  a.append_sequential(b);
  EXPECT_EQ(a.round_count(), 2u);
  EXPECT_EQ(a.max_machines(), 5u);
  EXPECT_EQ(a.total_work(), 300u);
  EXPECT_EQ(a.critical_path_work(), 110u);
  EXPECT_EQ(a.memory_violations(), 1u);
}

TEST(Trace, ParallelMerge) {
  ExecutionTrace a;
  a.add_round(RoundReport{.label = "x", .machines = 3, .max_machine_memory = 10,
                          .total_comm_bytes = 5, .total_input_bytes = 0,
                          .total_work = 100, .max_machine_work = 50,
                          .wall_seconds = 0, .memory_violations = 0});
  ExecutionTrace b;
  b.add_round(RoundReport{.label = "y", .machines = 4, .max_machine_memory = 30,
                          .total_comm_bytes = 2, .total_input_bytes = 0,
                          .total_work = 10, .max_machine_work = 9,
                          .wall_seconds = 0, .memory_violations = 0});
  b.add_round(RoundReport{.label = "y2", .machines = 1, .max_machine_memory = 1,
                          .total_comm_bytes = 1, .total_input_bytes = 0,
                          .total_work = 1, .max_machine_work = 1,
                          .wall_seconds = 0, .memory_violations = 0});
  a.merge_parallel(b);
  ASSERT_EQ(a.round_count(), 2u);  // padded to the longer trace
  EXPECT_EQ(a.rounds()[0].machines, 7u);
  EXPECT_EQ(a.rounds()[0].max_machine_memory, 30u);
  EXPECT_EQ(a.rounds()[0].total_work, 110u);
  EXPECT_EQ(a.rounds()[1].machines, 1u);
}

TEST(Trace, SummaryMentionsRoundsAndViolations) {
  ExecutionTrace tr;
  tr.add_round(RoundReport{.label = "only", .machines = 2, .max_machine_memory = 8,
                           .total_comm_bytes = 3, .total_input_bytes = 4,
                           .total_work = 9, .max_machine_work = 5,
                           .wall_seconds = 0, .memory_violations = 2});
  const std::string s = tr.summary();
  EXPECT_NE(s.find("rounds=1"), std::string::npos);
  EXPECT_NE(s.find("MEMORY_VIOLATIONS=2"), std::string::npos);
}

TEST(Trace, CsvExport) {
  ExecutionTrace tr;
  tr.add_round(RoundReport{.label = "phase1", .machines = 2, .max_machine_memory = 8,
                           .total_comm_bytes = 3, .total_input_bytes = 4,
                           .total_work = 9, .max_machine_work = 5,
                           .wall_seconds = 0, .memory_violations = 0});
  const std::string csv = tr.to_csv();
  EXPECT_NE(csv.find("round,label,machines"), std::string::npos);
  EXPECT_NE(csv.find("1,phase1,2,8,3,4,9,5,"), std::string::npos);
  // header + one row
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 2);
}

TEST(Cluster, ZeroMachinesRound) {
  Cluster cluster(ClusterConfig{});
  const auto mail = cluster.run_round("empty", {}, [](MachineContext&) {});
  EXPECT_TRUE(mail.empty());
  EXPECT_EQ(cluster.trace().rounds()[0].machines, 0u);
}

// ---- Zero-copy routing: equivalence with the contiguous-inputs path. ----

// A body exercising everything a machine can do: read, compute, charge,
// and emit to several interleaved mailboxes.
void busy_body(MachineContext& ctx) {
  auto r = ctx.reader();
  const auto v = r.get<std::int64_t>();
  ctx.charge_work(static_cast<std::uint64_t>(3 * v + 1));
  ctx.charge_scratch(16);
  ByteWriter w1;
  w1.put<std::int64_t>(v + 100);
  ctx.emit(static_cast<std::uint32_t>(v % 3), std::move(w1).take());
  ByteWriter w2;
  w2.put<std::int64_t>(-v);
  ctx.emit(7, std::move(w2).take());
}

TEST(Cluster, ViewsPathMatchesBytesPathByteExact) {
  std::vector<Bytes> inputs;
  for (std::int64_t i = 0; i < 20; ++i) inputs.push_back(payload_of(i));

  Cluster c1(ClusterConfig{});
  const auto mail_bytes = c1.run_round("r", inputs, busy_body);

  // Same storage, but each 8-byte input handed over as two fragments.
  std::vector<ByteChain> chains(inputs.size());
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    chains[i].add(ByteSpan(inputs[i].data(), 3));
    chains[i].add(ByteSpan(inputs[i].data() + 3, inputs[i].size() - 3));
  }
  Cluster c2(ClusterConfig{});
  const auto mail_views = c2.run_round_views("r", chains, busy_body);

  // Mail must be byte-exact, envelope by envelope.
  ASSERT_EQ(mail_bytes.message_count(), mail_views.message_count());
  for (std::size_t i = 0; i < mail_bytes.all().size(); ++i) {
    EXPECT_EQ(mail_bytes.all()[i].dest, mail_views.all()[i].dest) << "envelope " << i;
    EXPECT_EQ(mail_bytes.all()[i].payload, mail_views.all()[i].payload) << "envelope " << i;
  }
  for (const std::uint32_t dest : {0u, 1u, 2u, 7u, 99u}) {
    EXPECT_EQ(gather(mail_bytes, dest), gather(mail_views, dest)) << "dest=" << dest;
  }

  // RoundReport metering must be identical (wall time excepted).
  const RoundReport& a = c1.trace().rounds()[0];
  const RoundReport& b = c2.trace().rounds()[0];
  EXPECT_EQ(a.machines, b.machines);
  EXPECT_EQ(a.max_machine_memory, b.max_machine_memory);
  EXPECT_EQ(a.total_comm_bytes, b.total_comm_bytes);
  EXPECT_EQ(a.total_input_bytes, b.total_input_bytes);
  EXPECT_EQ(a.total_work, b.total_work);
  EXPECT_EQ(a.max_machine_work, b.max_machine_work);
  EXPECT_EQ(a.memory_violations, b.memory_violations);
}

TEST(Cluster, FlatRoutingMatchesMapReference) {
  // Reference semantics: the seed's map-of-vectors merge — ascending dest,
  // within a dest ascending machine id, then emission order.
  std::vector<Bytes> inputs;
  for (std::int64_t i = 0; i < 17; ++i) inputs.push_back(payload_of(i));
  Cluster cluster(ClusterConfig{});
  const auto mail = cluster.run_round("route", inputs, [](MachineContext& ctx) {
    auto r = ctx.reader();
    const auto v = r.get<std::int64_t>();
    for (std::int64_t e = 0; e < 3; ++e) {
      ByteWriter w;
      w.put<std::int64_t>(v * 10 + e);
      ctx.emit(static_cast<std::uint32_t>((v + e) % 4), std::move(w).take());
    }
  });

  std::map<std::uint32_t, std::vector<Bytes>> reference;
  for (std::int64_t v = 0; v < 17; ++v) {
    for (std::int64_t e = 0; e < 3; ++e) {
      ByteWriter w;
      w.put<std::int64_t>(v * 10 + e);
      reference[static_cast<std::uint32_t>((v + e) % 4)].push_back(std::move(w).take());
    }
  }
  std::size_t i = 0;
  for (const auto& [dest, payloads] : reference) {
    const auto span = mail.at(dest);
    ASSERT_EQ(span.size(), payloads.size()) << "dest=" << dest;
    for (std::size_t j = 0; j < payloads.size(); ++j, ++i) {
      EXPECT_EQ(span[j].payload, payloads[j]) << "dest=" << dest << " j=" << j;
      EXPECT_EQ(mail.all()[i].dest, dest);
      EXPECT_EQ(mail.all()[i].payload, payloads[j]);
    }
  }
  EXPECT_EQ(i, mail.message_count());
}

TEST(Cluster, StrictMemoryThrowsOnViewsPath) {
  Cluster cluster(ClusterConfig{{.workers = 1, .strict_memory = true},
                                /*memory_limit_bytes=*/50, /*seed=*/0});
  const Bytes big(100);
  std::vector<ByteChain> chains(1);
  chains[0].add(ByteSpan(big));
  EXPECT_THROW(cluster.run_round_views("boom", chains, [](MachineContext&) {}),
               MemoryLimitExceeded);
}

TEST(Cluster, MultiMachineGrainDoesNotChangeResults) {
  // 2000 machines: the cluster's grain is 2000 / (8·workers + 1), clamped
  // to 64 — 64 at one worker, 60 at four — so workers claim many machines
  // per fetch, and the mail and RNG draws must not depend on it.
  auto run = [](std::size_t workers) {
    Cluster cluster(ClusterConfig{{.workers = workers},
                                  /*memory_limit_bytes=*/UINT64_MAX, /*seed=*/5});
    std::vector<Bytes> inputs;
    for (std::int64_t i = 0; i < 2000; ++i) inputs.push_back(payload_of(i));
    const auto mail = cluster.run_round("g", inputs, [](MachineContext& ctx) {
      auto r = ctx.reader();
      ByteWriter w;
      w.put<std::int64_t>(r.get<std::int64_t>() * 2);
      w.put<std::uint32_t>(ctx.rng().next());
      ctx.emit(static_cast<std::uint32_t>(ctx.machine_id() % 3), std::move(w).take());
    });
    EXPECT_EQ(mail.message_count(), 2000u);
    return std::vector<Bytes>{gather(mail, 0), gather(mail, 1), gather(mail, 2)};
  };
  EXPECT_EQ(run(1), run(4));
}

TEST(Cluster, GatherViewMatchesGather) {
  Cluster cluster(ClusterConfig{});
  std::vector<Bytes> inputs{payload_of(1), payload_of(2), payload_of(3)};
  const auto mail = cluster.run_round("gv", inputs, [](MachineContext& ctx) {
    auto r = ctx.reader();
    ByteWriter w;
    w.put<std::int64_t>(r.get<std::int64_t>());
    ctx.emit(0, std::move(w).take());
  });
  const ByteChain view = gather_view(mail, 0);
  EXPECT_EQ(view.to_bytes(), gather(mail, 0));
  EXPECT_EQ(view.parts().size(), 3u);  // one fragment per payload, no copy
  EXPECT_TRUE(gather_view(mail, 42).empty());
}

}  // namespace
}  // namespace mpcsd::mpc
