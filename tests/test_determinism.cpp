// Worker-count independence: the simulator's metered results are a pure
// function of (input, params, seed).  Running the same ulam/edit round
// plan with 1 worker and with N workers must produce the same distance and
// a byte-identical ExecutionTrace structural hash — any divergence means a
// machine body leaked schedule order into its output or metering.
#include <gtest/gtest.h>

#include <cstdint>

#include "common/cpu.hpp"
#include "core/batch.hpp"
#include "core/workload.hpp"
#include "edit_mpc/hss_baseline.hpp"
#include "edit_mpc/solver.hpp"
#include "mpc/backend.hpp"
#include "mpc/stats.hpp"
#include "ulam_mpc/solver.hpp"

namespace mpcsd {
namespace {

TEST(Determinism, UlamSolverTraceIndependentOfWorkerCount) {
  const auto s = core::random_permutation(600, 11);
  const auto t = core::plant_edits(s, 40, 12, true).text;
  auto run = [&](std::size_t workers) {
    ulam_mpc::UlamMpcParams params;
    params.workers = workers;
    return ulam_mpc::ulam_distance_mpc(s, t, params);
  };
  const auto serial = run(1);
  for (const std::size_t workers : {2ul, 5ul}) {
    const auto parallel = run(workers);
    EXPECT_EQ(parallel.distance, serial.distance) << workers << " workers";
    EXPECT_EQ(parallel.trace.structural_hash(), serial.trace.structural_hash())
        << workers << " workers";
  }
}

TEST(Determinism, EditSolverTraceIndependentOfWorkerCount) {
  const auto s = core::random_string(500, 10, 13);
  const auto t = core::plant_edits(s, 30, 14, false).text;
  auto run = [&](std::size_t workers) {
    edit_mpc::EditMpcParams params;
    params.workers = workers;
    return edit_mpc::edit_distance_mpc(s, t, params);
  };
  const auto serial = run(1);
  for (const std::size_t workers : {2ul, 5ul}) {
    const auto parallel = run(workers);
    EXPECT_EQ(parallel.distance, serial.distance) << workers << " workers";
    EXPECT_EQ(parallel.accepted_guess, serial.accepted_guess)
        << workers << " workers";
    EXPECT_EQ(parallel.trace.structural_hash(), serial.trace.structural_hash())
        << workers << " workers";
  }
}

TEST(Determinism, BatchThroughputTraceIndependentOfWorkerCount) {
  core::BatchRequest request;
  request.algorithm = core::BatchAlgorithm::kUlam;
  request.mode = core::BatchMode::kThroughput;
  for (std::uint64_t q = 0; q < 4; ++q) {
    const auto s = core::random_permutation(250, 30 + q);
    core::BatchQuery query;
    query.s = s;
    query.t = core::plant_edits(s, 15, 40 + q, true).text;
    request.queries.push_back(std::move(query));
  }
  auto run = [&](std::size_t workers) {
    core::BatchRequest r = request;
    r.ulam.workers = workers;
    return core::distance_batch(r);
  };
  const auto serial = run(1);
  const auto parallel = run(4);
  ASSERT_EQ(parallel.queries.size(), serial.queries.size());
  for (std::size_t q = 0; q < serial.queries.size(); ++q) {
    EXPECT_EQ(parallel.queries[q].distance, serial.queries[q].distance) << q;
  }
  EXPECT_EQ(parallel.trace.structural_hash(), serial.trace.structural_hash());
}

TEST(Determinism, TraceHashIndependentOfIsaLevel) {
  // Kernel ISA dispatch (scalar / AVX2 / AVX-512, whichever the host has)
  // must be invisible to results and metering: every (ISA, worker-count)
  // combination of the same solve returns the same distance and a
  // byte-identical structural trace hash.  MPCSD_FORCE_ISA drives the same
  // clamp from the environment; CI's forced-scalar leg covers that spelling
  // of this invariant out-of-process.
  struct IsaGuard {
    Isa saved = active_isa();
    ~IsaGuard() { force_isa(saved); }
  } guard;

  const auto s = core::random_string(700, 8, 21);
  const auto t = core::plant_edits(s, 35, 22, false).text;
  auto run = [&](Isa level, std::size_t workers) {
    force_isa(level);
    edit_mpc::EditMpcParams params;
    params.workers = workers;
    return edit_mpc::edit_distance_mpc(s, t, params);
  };
  const auto base = run(Isa::kScalar, 1);
  for (const Isa level : {Isa::kScalar, Isa::kAvx2, Isa::kAvx512}) {
    if (force_isa(level) != level) continue;  // host lacks the level
    for (const std::size_t workers : {1ul, 2ul, 5ul}) {
      const auto r = run(level, workers);
      EXPECT_EQ(r.distance, base.distance)
          << isa_name(level) << " x " << workers << " workers";
      EXPECT_EQ(r.accepted_guess, base.accepted_guess)
          << isa_name(level) << " x " << workers << " workers";
      EXPECT_EQ(r.trace.structural_hash(), base.trace.structural_hash())
          << isa_name(level) << " x " << workers << " workers";
    }
  }
}

TEST(Determinism, UlamTraceHashIndependentOfIsaLevel) {
  struct IsaGuard {
    Isa saved = active_isa();
    ~IsaGuard() { force_isa(saved); }
  } guard;

  const auto s = core::random_permutation(600, 23);
  const auto t = core::plant_edits(s, 40, 24, true).text;
  force_isa(Isa::kScalar);
  ulam_mpc::UlamMpcParams params;
  params.workers = 3;
  const auto base = ulam_mpc::ulam_distance_mpc(s, t, params);
  for (const Isa level : {Isa::kAvx2, Isa::kAvx512}) {
    if (force_isa(level) != level) continue;
    const auto r = ulam_mpc::ulam_distance_mpc(s, t, params);
    EXPECT_EQ(r.distance, base.distance) << isa_name(level);
    EXPECT_EQ(r.trace.structural_hash(), base.trace.structural_hash())
        << isa_name(level);
  }
}

TEST(Determinism, UlamTraceHashIndependentOfExecutionBackend) {
  // The execution backend (thread pool or forked worker processes) is an
  // implementation detail of where machine bodies run; the metered model —
  // distance, per-round stats, structural trace hash — must be
  // byte-identical across {thread, process} x worker counts.
  const auto s = core::random_permutation(600, 61);
  const auto t = core::plant_edits(s, 40, 62, true).text;
  auto run = [&](mpc::BackendKind backend, std::size_t workers) {
    ulam_mpc::UlamMpcParams params;
    params.workers = workers;
    params.backend = backend;
    return ulam_mpc::ulam_distance_mpc(s, t, params);
  };
  const auto base = run(mpc::BackendKind::kThread, 1);
  for (const auto backend :
       {mpc::BackendKind::kThread, mpc::BackendKind::kProcess}) {
    for (const std::size_t workers : {1ul, 2ul, 5ul}) {
      const auto r = run(backend, workers);
      EXPECT_EQ(r.distance, base.distance)
          << mpc::backend_kind_name(backend) << " x " << workers;
      EXPECT_EQ(r.trace.structural_hash(), base.trace.structural_hash())
          << mpc::backend_kind_name(backend) << " x " << workers;
    }
  }
}

TEST(Determinism, EditTraceHashIndependentOfExecutionBackend) {
  const auto s = core::random_string(500, 10, 63);
  const auto t = core::plant_edits(s, 30, 64, false).text;
  auto run = [&](mpc::BackendKind backend, std::size_t workers) {
    edit_mpc::EditMpcParams params;
    params.workers = workers;
    params.backend = backend;
    return edit_mpc::edit_distance_mpc(s, t, params);
  };
  const auto base = run(mpc::BackendKind::kThread, 1);
  for (const auto backend :
       {mpc::BackendKind::kThread, mpc::BackendKind::kProcess}) {
    for (const std::size_t workers : {1ul, 2ul, 5ul}) {
      const auto r = run(backend, workers);
      EXPECT_EQ(r.distance, base.distance)
          << mpc::backend_kind_name(backend) << " x " << workers;
      EXPECT_EQ(r.accepted_guess, base.accepted_guess)
          << mpc::backend_kind_name(backend) << " x " << workers;
      EXPECT_EQ(r.trace.structural_hash(), base.trace.structural_hash())
          << mpc::backend_kind_name(backend) << " x " << workers;
    }
  }
}

TEST(Determinism, HssTraceHashIndependentOfExecutionBackend) {
  const auto s = core::random_string(240, 8, 65);
  const auto t = core::plant_edits(s, 12, 66, false).text;
  auto run = [&](mpc::BackendKind backend, std::size_t workers) {
    edit_mpc::HssBaselineParams params;
    params.workers = workers;
    params.backend = backend;
    return edit_mpc::hss_edit_distance_mpc(s, t, params);
  };
  const auto base = run(mpc::BackendKind::kThread, 1);
  for (const auto backend :
       {mpc::BackendKind::kThread, mpc::BackendKind::kProcess}) {
    for (const std::size_t workers : {1ul, 3ul}) {
      const auto r = run(backend, workers);
      EXPECT_EQ(r.distance, base.distance)
          << mpc::backend_kind_name(backend) << " x " << workers;
      EXPECT_EQ(r.accepted_guess, base.accepted_guess)
          << mpc::backend_kind_name(backend) << " x " << workers;
      EXPECT_EQ(r.trace.structural_hash(), base.trace.structural_hash())
          << mpc::backend_kind_name(backend) << " x " << workers;
    }
  }
}

TEST(Determinism, BatchTraceHashIndependentOfExecutionBackend) {
  core::BatchRequest request;
  request.algorithm = core::BatchAlgorithm::kEdit;
  request.mode = core::BatchMode::kThroughput;
  for (std::uint64_t q = 0; q < 3; ++q) {
    const auto s = core::random_string(220, 6, 70 + q);
    core::BatchQuery query;
    query.s = s;
    query.t = core::plant_edits(s, 12, 80 + q, false).text;
    request.queries.push_back(std::move(query));
  }
  auto run = [&](mpc::BackendKind backend) {
    core::BatchRequest r = request;
    r.edit.workers = 3;
    r.edit.backend = backend;
    return core::distance_batch(r);
  };
  const auto threaded = run(mpc::BackendKind::kThread);
  const auto isolated = run(mpc::BackendKind::kProcess);
  ASSERT_EQ(isolated.queries.size(), threaded.queries.size());
  for (std::size_t q = 0; q < threaded.queries.size(); ++q) {
    EXPECT_EQ(isolated.queries[q].distance, threaded.queries[q].distance)
        << "query " << q;
  }
  EXPECT_EQ(isolated.trace.structural_hash(), threaded.trace.structural_hash());
}

TEST(Determinism, ParallelGuessBatchWithLargeRungsIndependentOfBackend) {
  // Every rung in one pass, the large (Lemma 8) ones included: the shared
  // and per-query hashes must not depend on the backend or worker count.
  core::BatchRequest request;
  request.algorithm = core::BatchAlgorithm::kEdit;
  request.mode = core::BatchMode::kParallelGuess;
  const auto s = core::random_string(128, 8, 90);
  request.queries.push_back(
      core::BatchQuery{s, core::plant_edits(s, 8, 91, false).text});
  request.queries.push_back(core::BatchQuery{core::random_string(128, 256, 92),
                                             core::random_string(128, 256, 93)});
  auto run = [&](mpc::BackendKind backend, std::size_t workers) {
    core::BatchRequest r = request;
    r.edit.workers = workers;
    r.edit.backend = backend;
    return core::distance_batch(r);
  };
  const auto base = run(mpc::BackendKind::kThread, 1);
  ASSERT_EQ(base.trace.round_count(), 4u);  // the large rungs ran
  for (const auto backend :
       {mpc::BackendKind::kThread, mpc::BackendKind::kProcess}) {
    for (const std::size_t workers : {1ul, 2ul, 4ul}) {
      const auto r = run(backend, workers);
      EXPECT_EQ(r.trace.structural_hash(), base.trace.structural_hash())
          << mpc::backend_kind_name(backend) << " x " << workers;
      for (std::size_t q = 0; q < base.queries.size(); ++q) {
        EXPECT_EQ(r.queries[q].distance, base.queries[q].distance)
            << mpc::backend_kind_name(backend) << " x " << workers << " query " << q;
        EXPECT_EQ(r.queries[q].trace.structural_hash(),
                  base.queries[q].trace.structural_hash())
            << mpc::backend_kind_name(backend) << " x " << workers << " query " << q;
      }
    }
  }
}

TEST(Determinism, StructuralHashIgnoresWallClockOnly) {
  // Two identical runs hash identically even though wall-clock fields
  // differ between them; a different input hashes differently.
  const auto s = core::random_permutation(300, 50);
  const auto t = core::plant_edits(s, 20, 51, true).text;
  ulam_mpc::UlamMpcParams params;
  params.workers = 2;
  const auto a = ulam_mpc::ulam_distance_mpc(s, t, params);
  const auto b = ulam_mpc::ulam_distance_mpc(s, t, params);
  EXPECT_EQ(a.trace.structural_hash(), b.trace.structural_hash());
  const auto t2 = core::plant_edits(s, 21, 52, true).text;
  const auto c = ulam_mpc::ulam_distance_mpc(s, t2, params);
  EXPECT_NE(a.trace.structural_hash(), c.trace.structural_hash());
}

}  // namespace
}  // namespace mpcsd
