// google-benchmark micro-benchmarks for the sequential engines — the unit
// costs underlying the Table 1 work columns, plus the DESIGN.md ablations
// (dense vs sparse Ulam, naive vs fast combine, exact vs 3+eps unit), the
// two Ulam machine bodies (one block's candidates, the block-partitioned
// combine, also on one query's real candidate tuples) and the two edit
// machine bodies (one task's candidates; the kSum combine, also on one
// rung's real candidate tuples).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <unordered_map>
#include <utility>

#include "common/rng.hpp"
#include "core/workload.hpp"
#include "edit_mpc/small_distance.hpp"
#include "seq/approx_edit.hpp"
#include "seq/myers.hpp"
#include "seq/combine.hpp"
#include "seq/edit_distance.hpp"
#include "seq/ulam.hpp"
#include "ulam_mpc/candidates.hpp"

namespace {

using namespace mpcsd;

void BM_EditDistanceFullDp(benchmark::State& state) {
  const auto n = state.range(0);
  const auto a = core::random_string(n, 4, 1);
  const auto b = core::random_string(n, 4, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(seq::edit_distance(a, b));
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_EditDistanceFullDp)->Range(256, 4096)->Complexity(benchmark::oNSquared);

void BM_EditDistanceBandedNearPair(benchmark::State& state) {
  const auto n = state.range(0);
  const auto a = core::random_string(n, 4, 1);
  const auto b = core::plant_edits(a, 32, 3, false).text;
  for (auto _ : state) {
    benchmark::DoNotOptimize(seq::edit_distance_doubling(a, b));
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_EditDistanceBandedNearPair)->Range(1024, 65536)->Complexity(benchmark::oN);

void BM_EditDistanceMyers(benchmark::State& state) {
  const auto n = state.range(0);
  const auto a = core::random_string(n, 4, 1);
  const auto b = core::random_string(n, 4, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(seq::edit_distance_myers(a, b));
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_EditDistanceMyers)->Range(256, 16384)->Complexity(benchmark::oNSquared);

void BM_UlamSparse(benchmark::State& state) {
  const auto n = state.range(0);
  const auto a = core::random_permutation(n, 1);
  const auto b = core::plant_edits(a, n / 20, 2, true).text;
  for (auto _ : state) {
    benchmark::DoNotOptimize(seq::ulam_distance(a, b));
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_UlamSparse)->Range(1024, 65536)->Complexity(benchmark::oNLogN);

void BM_UlamDense(benchmark::State& state) {
  const auto n = state.range(0);
  const auto a = core::random_permutation(n, 1);
  const auto b = core::plant_edits(a, n / 20, 2, true).text;
  for (auto _ : state) {
    benchmark::DoNotOptimize(seq::ulam_distance_dense(a, b));
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_UlamDense)->Range(256, 4096)->Complexity(benchmark::oNSquared);

void BM_LocalUlam(benchmark::State& state) {
  const auto n = state.range(0);
  const auto t = core::random_permutation(n, 5);
  const auto edited = core::plant_edits(t, n / 30, 6, true).text;
  const SymView block = subview(edited, {n / 4, n / 4 + n / 8});
  for (auto _ : state) {
    benchmark::DoNotOptimize(seq::local_ulam(block, t));
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_LocalUlam)->Range(1024, 32768)->Complexity(benchmark::oNLogN);

void BM_ApproxEditNear(benchmark::State& state) {
  const auto n = state.range(0);
  const auto a = core::random_string(n, 4, 7);
  const auto b = core::plant_edits(a, 48, 8, false).text;
  for (auto _ : state) {
    benchmark::DoNotOptimize(seq::approx_edit_distance(a, b));
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_ApproxEditNear)->Range(1024, 32768)->Complexity(benchmark::oN);

void BM_ApproxEditFar(benchmark::State& state) {
  const auto n = state.range(0);
  const auto a = core::random_string(n, 4, 9);
  const auto b = core::block_shuffle(a, n / 8, 10);
  for (auto _ : state) {
    benchmark::DoNotOptimize(seq::approx_edit_distance(a, b));
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_ApproxEditFar)->Range(1024, 4096)->Iterations(1);

void BM_CombineFast(benchmark::State& state) {
  const auto count = state.range(0);
  Pcg32 rng = derive_stream(1, 2);
  std::vector<seq::Tuple> tuples;
  for (std::int64_t i = 0; i < count; ++i) {
    seq::Tuple t;
    t.block_begin = rng.uniform(0, 9999);
    t.block_end = rng.uniform(t.block_begin + 1, 10000);
    t.window_begin = rng.uniform(0, 10000);
    t.window_end = rng.uniform(t.window_begin, 10000);
    t.distance = rng.uniform(0, 50);
    tuples.push_back(t);
  }
  seq::CombineOptions options;
  options.gap = seq::GapCost::kMax;
  for (auto _ : state) {
    benchmark::DoNotOptimize(seq::combine_tuples(tuples, 10000, 10000, options));
  }
  state.SetComplexityN(count);
}
BENCHMARK(BM_CombineFast)->Range(256, 32768)->Complexity(benchmark::oNLogN);

void BM_CombineNaive(benchmark::State& state) {
  const auto count = state.range(0);
  Pcg32 rng = derive_stream(1, 2);
  std::vector<seq::Tuple> tuples;
  for (std::int64_t i = 0; i < count; ++i) {
    seq::Tuple t;
    t.block_begin = rng.uniform(0, 9999);
    t.block_end = rng.uniform(t.block_begin + 1, 10000);
    t.window_begin = rng.uniform(0, 10000);
    t.window_end = rng.uniform(t.window_begin, 10000);
    t.distance = rng.uniform(0, 50);
    tuples.push_back(t);
  }
  seq::CombineOptions options;
  options.gap = seq::GapCost::kMax;
  options.use_fast = false;
  for (auto _ : state) {
    benchmark::DoNotOptimize(seq::combine_tuples_naive(tuples, 10000, 10000, options));
  }
  state.SetComplexityN(count);
}
BENCHMARK(BM_CombineNaive)->Range(256, 4096)->Complexity(benchmark::oNSquared);

/// The Ulam block size B = ceil(n^{2/3}), the default x = 1/3.
std::int64_t ulam_block(std::int64_t n) {
  return static_cast<std::int64_t>(std::ceil(std::pow(static_cast<double>(n), 2.0 / 3.0)));
}

/// Position in t of each symbol of s[begin, begin + block) (-1 when t
/// lacks it): the position-map feed of one Ulam block machine.
std::vector<std::int64_t> block_positions(const SymString& s, const SymString& t,
                                          std::int64_t begin, std::int64_t block) {
  std::unordered_map<Symbol, std::int64_t> where;
  for (std::size_t j = 0; j < t.size(); ++j) {
    where.emplace(t[j], static_cast<std::int64_t>(j));
  }
  const auto n = static_cast<std::int64_t>(s.size());
  std::vector<std::int64_t> positions;
  for (std::int64_t p = begin; p < std::min(n, begin + block); ++p) {
    const auto it = where.find(s[static_cast<std::size_t>(p)]);
    positions.push_back(it == where.end() ? -1 : it->second);
  }
  return positions;
}

// Round 1 of the Ulam algorithm for one block: Algorithm 1's candidate
// windows, each evaluated exactly.  Block size B = ceil(n^{2/3}), the
// default x = 1/3; the block is the middle one of s.
void BM_UlamBlockCandidates(benchmark::State& state, std::int64_t n,
                            bool adjacent_swaps) {
  const auto s = core::random_permutation(n, 1);
  SymString t;
  if (adjacent_swaps) {
    // Every run of match points has length 1: the worst case for the
    // run-level evaluator.
    t = s;
    for (std::size_t i = 0; i + 1 < t.size(); i += 2) std::swap(t[i], t[i + 1]);
  } else {
    t = core::plant_edits(s, n / 16, 2, true).text;  // the ulam_batch shape
  }
  const std::int64_t block = ulam_block(n);
  const std::int64_t begin = (n / 2 / block) * block;
  const auto positions = block_positions(s, t, begin, block);
  ulam_mpc::CandidateParams params;
  params.n = n;
  params.n_bar = static_cast<std::int64_t>(t.size());
  std::size_t evaluated = 0;
  for (auto _ : state) {
    Pcg32 rng = derive_stream(3, static_cast<std::uint64_t>(begin));
    ulam_mpc::CandidateStats stats;
    benchmark::DoNotOptimize(
        ulam_mpc::build_block_candidates(begin, positions, params, rng, &stats));
    evaluated = stats.candidates_evaluated;
  }
  state.counters["candidates"] = static_cast<double>(evaluated);
}
BENCHMARK_CAPTURE(BM_UlamBlockCandidates, planted_n1024, 1024, false)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_UlamBlockCandidates, adjacent_swaps_n16384, 16384, true)
    ->Unit(benchmark::kMillisecond);

// Round 1 of the edit algorithm for one task (Algorithm 3): the middle
// block's first batch of starts, every (start, end) candidate priced
// against the block by small_task_tuples.  The solver's x and eps' at the
// guess equal to the planted edit count: edit_ladder's shape (sigma = 8,
// n/16 edits) and edit_single's (DNA, n/16 edits).
void BM_EditBlockCandidates(benchmark::State& state, std::int64_t n, bool dna) {
  const auto s = dna ? core::random_dna(n, 1) : core::random_string(n, 8, 1);
  const auto t = core::plant_edits(s, n / 16, 2, false, dna ? 4 : 8).text;
  edit_mpc::SmallDistanceParams params;
  params.eps_prime = 0.15;
  params.x = 0.25;
  params.delta_guess = n / 16;
  const auto geo =
      edit_mpc::small_geometry(n, static_cast<std::int64_t>(t.size()), params);
  const auto tasks = edit_mpc::make_small_tasks(s, t, params, geo);
  const auto task = std::find_if(tasks.begin(), tasks.end(), [n](const auto& task) {
    return task.block_begin >= n / 2;
  });
  std::size_t tuples = 0;
  for (auto _ : state) {
    std::uint64_t work = 0;
    const auto out = edit_mpc::small_task_tuples(*task, params, geo, &work);
    benchmark::DoNotOptimize(work);
    tuples = out.size();
  }
  state.counters["starts"] = static_cast<double>(task->starts.size());
  state.counters["tuples"] = static_cast<double>(tuples);
}
BENCHMARK_CAPTURE(BM_EditBlockCandidates, ladder_n1024, 1024, false)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_EditBlockCandidates, dna_n2048, 2048, true)
    ->Unit(benchmark::kMillisecond);

// Round 2 of the Ulam algorithm: the kMax combine over block-partitioned
// tuples, as the round-1 machines send them (many windows per block, every
// window near the block's diagonal).  A hundred distinct block boundaries
// over n = n_bar = 10000 keep it on the sweep along s; BM_CombineFast's
// random intervals have thousands of boundaries and take the CDQ.
void BM_CombineBlocks(benchmark::State& state) {
  const auto count = state.range(0);
  const std::int64_t n = 10000;
  const std::int64_t block = 100;
  const std::int64_t per_block = count / (n / block);
  Pcg32 rng = derive_stream(1, 3);
  std::vector<seq::Tuple> tuples;
  for (std::int64_t b = 0; b < n; b += block) {
    for (std::int64_t i = 0; i < per_block; ++i) {
      seq::Tuple t;
      t.block_begin = b;
      t.block_end = b + block;
      t.window_begin = std::clamp<std::int64_t>(b + rng.uniform(-20, 20), 0, n);
      t.window_end = std::clamp<std::int64_t>(
          t.window_begin + block + rng.uniform(-20, 20), t.window_begin, n);
      t.distance = rng.uniform(0, 50);
      tuples.push_back(t);
    }
  }
  seq::CombineOptions options;
  options.gap = seq::GapCost::kMax;
  for (auto _ : state) {
    benchmark::DoNotOptimize(seq::combine_tuples(tuples, n, n, options));
  }
}
BENCHMARK(BM_CombineBlocks)->Arg(50000)->Unit(benchmark::kMillisecond);

// Round 2 of the Ulam algorithm on the tuples it really gets: every block's
// Algorithm 1 candidates for one planted n = 1024 permutation (the
// ulam_batch shape: n/16 planted moves, blocks of ceil(n^(2/3)) = 102, so
// 11 blocks and about 54 k tuples), combined as one combine machine does.
void BM_CombineUlamInbox(benchmark::State& state) {
  const std::int64_t n = 1024;
  const auto s = core::random_permutation(n, 1);
  const auto t = core::plant_edits(s, n / 16, 2, true).text;
  ulam_mpc::CandidateParams params;
  params.n = n;
  params.n_bar = static_cast<std::int64_t>(t.size());
  const std::int64_t block = ulam_block(n);
  std::vector<seq::Tuple> tuples;
  for (std::int64_t begin = 0; begin < n; begin += block) {
    Pcg32 rng = derive_stream(3, static_cast<std::uint64_t>(begin));
    const auto out = ulam_mpc::build_block_candidates(
        begin, block_positions(s, t, begin, block), params, rng);
    tuples.insert(tuples.end(), out.begin(), out.end());
  }
  seq::CombineOptions options;
  options.gap = seq::GapCost::kMax;
  for (auto _ : state) {
    benchmark::DoNotOptimize(seq::combine_tuples(tuples, n, params.n_bar, options));
  }
  state.counters["tuples"] = static_cast<double>(tuples.size());
}
BENCHMARK(BM_CombineUlamInbox)->Unit(benchmark::kMillisecond);

// Round 2 of the edit algorithm: the kSum combine (Algorithm 4's sweep)
// over block-partitioned tuples shaped like round 1's output — per block,
// windows whose start and end each stray a little from the block's
// diagonal, priced at least their length difference.
void BM_CombineSum(benchmark::State& state) {
  const auto count = state.range(0);
  const std::int64_t n = 10000;
  const std::int64_t block = 100;
  const std::int64_t per_block = count / (n / block);
  Pcg32 rng = derive_stream(1, 4);
  std::vector<seq::Tuple> tuples;
  for (std::int64_t b = 0; b < n; b += block) {
    for (std::int64_t i = 0; i < per_block; ++i) {
      seq::Tuple t;
      t.block_begin = b;
      t.block_end = b + block;
      t.window_begin = std::clamp<std::int64_t>(b + rng.uniform(-20, 20), 0, n);
      t.window_end = std::clamp<std::int64_t>(t.block_end + rng.uniform(-20, 20),
                                              t.window_begin, n);
      t.distance = std::abs(t.window_end - t.window_begin - block) + rng.uniform(0, 30);
      tuples.push_back(t);
    }
  }
  seq::CombineOptions options;
  options.gap = seq::GapCost::kSum;
  for (auto _ : state) {
    benchmark::DoNotOptimize(seq::combine_tuples(tuples, n, n, options));
  }
}
BENCHMARK(BM_CombineSum)->Arg(50000)->Unit(benchmark::kMillisecond);

// Round 2 of the edit algorithm on the tuples it really gets: every task's
// Algorithm 3 candidates for one edit_single-shaped rung (DNA, n = 2048,
// n/16 planted edits, the solver's x and eps' at guess 32: about 15 k
// tuples over 7 blocks of 304), combined as one combine machine does.  Its
// few block boundaries put it on the dense kSum sweep; BM_CombineSum's
// hundred boundaries over n = 10000 keep that one on the Fenwick.
void BM_CombineEditInbox(benchmark::State& state) {
  const std::int64_t n = 2048;
  const auto s = core::random_dna(n, 1);
  const auto t = core::plant_edits(s, n / 16, 2, false, 4).text;
  edit_mpc::SmallDistanceParams params;
  params.eps_prime = 0.15;
  params.x = 0.25;
  params.delta_guess = state.range(0);
  const auto n_bar = static_cast<std::int64_t>(t.size());
  const auto geo = edit_mpc::small_geometry(n, n_bar, params);
  std::vector<seq::Tuple> tuples;
  for (const auto& task : edit_mpc::make_small_tasks(s, t, params, geo)) {
    const auto out = edit_mpc::small_task_tuples(task, params, geo, nullptr);
    tuples.insert(tuples.end(), out.begin(), out.end());
  }
  seq::CombineOptions options;
  options.gap = seq::GapCost::kSum;
  for (auto _ : state) {
    benchmark::DoNotOptimize(seq::combine_tuples(tuples, n, n_bar, options));
  }
  state.counters["tuples"] = static_cast<double>(tuples.size());
}
BENCHMARK(BM_CombineEditInbox)->Arg(32)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
