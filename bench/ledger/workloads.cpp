#include "workloads.hpp"

#include <algorithm>

#include "common/rng.hpp"
#include "core/batch.hpp"
#include "core/workload.hpp"
#include "edit_mpc/small_distance.hpp"
#include "seq/edit_distance_os.hpp"
#include "seq/ulam.hpp"
#include "ulam_mpc/solver.hpp"

namespace mpcsd::ledger {

namespace {

using core::RouterPolicy;
using mpc::BackendKind;

std::vector<Workload> make_workloads(bool smoke) {
  // Smoke keeps every shape but shrinks n, B and the pool.
  const auto size = [smoke](std::int64_t full) -> std::int64_t {
    return smoke ? 128 : full;
  };
  const auto count = [smoke](std::size_t full, std::size_t tiny) {
    return smoke ? tiny : full;
  };
  // Why each workload exists is recorded in BENCHMARK.json.  Pools hold
  // 48-512 pairs, so a run's averages and maxima rest on many distinct
  // inputs; one pass over a pool takes at most about 6 s.  One pass over a
  // reference set (16-256 pairs) takes at most about 1.5 s, so it fits in
  // the warm-up.
  return {
      {"edit_ladder", Api::kBatchEdit, Family::kLadder,
       RouterPolicy::kOff, BackendKind::kThread, size(1024), count(8, 4),
       count(32, 2), count(8, 1)},
      {"edit_skewed", Api::kBatchEdit, Family::kSkewed,
       RouterPolicy::kAuto, BackendKind::kThread, size(2000), count(32, 4),
       count(16, 2), count(8, 1)},
      {"ulam_batch", Api::kBatchUlam, Family::kPermutation,
       RouterPolicy::kOff, BackendKind::kThread, size(1024), count(4, 2),
       count(16, 2), count(4, 1)},
      {"edit_isolated", Api::kBatchEdit, Family::kLadder,
       RouterPolicy::kOff, BackendKind::kProcess, size(1024), count(8, 4),
       count(32, 2), count(8, 1)},
      {"edit_single", Api::kSingleEdit, Family::kDna,
       RouterPolicy::kOff, BackendKind::kThread, size(2048), 1,
       count(48, 2), count(16, 1)},
  };
}

/// Independent input stream per (seed, family, index): edit_ladder and
/// edit_isolated share a family, hence identical inputs.
std::uint64_t stream(std::uint64_t seed, Family family, std::uint64_t index) {
  return splitmix64(splitmix64(seed ^ (0x1ed9e7ULL + static_cast<std::uint64_t>(family))) +
                    index);
}

Pair planted_pair(SymString s, std::int64_t edits, std::uint64_t seed,
                  bool repeat_free, Symbol alphabet) {
  Pair pair;
  auto planted = core::plant_edits(s, edits, seed, repeat_free, alphabet);
  pair.s = std::move(s);
  pair.t = std::move(planted.text);
  pair.planted = planted.edits_applied;
  return pair;
}

edit_mpc::EditMpcParams edit_params(const Workload& w, std::size_t workers,
                                    obs::Recorder* recorder) {
  edit_mpc::EditMpcParams params;
  params.workers = workers;
  params.backend = w.backend;
  params.recorder = recorder;
  return params;
}

CallResult run_batch(const Workload& w, const Call& call, std::size_t workers,
                     obs::Recorder* recorder) {
  core::BatchRequest request;
  request.algorithm = w.api == Api::kBatchUlam ? core::BatchAlgorithm::kUlam
                                               : core::BatchAlgorithm::kEdit;
  request.mode = core::BatchMode::kThroughput;
  request.router = w.router;
  request.recorder = recorder;
  request.edit = edit_params(w, workers, nullptr);
  request.ulam.workers = workers;
  request.ulam.backend = w.backend;
  request.queries.reserve(call.size());
  for (const Pair& pair : call) request.queries.push_back({pair.s, pair.t});

  core::BatchResult batch = core::distance_batch(request);
  CallResult out;
  for (const core::QueryResult& q : batch.queries) {
    out.distances.push_back(q.distance);
    out.mem_frac.push_back(
        q.memory_cap_bytes == 0
            ? 0.0
            : static_cast<double>(q.trace.max_machine_memory()) /
                  static_cast<double>(q.memory_cap_bytes));
    out.violations.push_back(q.trace.memory_violations());
    out.rungs += q.rungs_run;
  }
  out.trace = std::move(batch.trace);
  out.passes = batch.passes;
  return out;
}

CallResult run_single(const Workload& w, const Pair& pair, std::size_t workers,
                      obs::Recorder* recorder) {
  edit_mpc::EditMpcResult r =
      edit_mpc::edit_distance_mpc(pair.s, pair.t, edit_params(w, workers, recorder));
  CallResult out;
  out.distances.push_back(r.distance);
  out.mem_frac.push_back(r.memory_cap_bytes == 0
                             ? 0.0
                             : static_cast<double>(r.trace.max_machine_memory()) /
                                   static_cast<double>(r.memory_cap_bytes));
  out.violations.push_back(r.trace.memory_violations());
  out.trace = std::move(r.trace);
  out.guesses = r.guesses_run;
  out.memory_cap_bytes = r.memory_cap_bytes;
  out.per_guess = std::move(r.per_guess);
  return out;
}

}  // namespace

const std::vector<Workload>& all_workloads(bool smoke) {
  static const std::vector<Workload> full = make_workloads(false);
  static const std::vector<Workload> tiny = make_workloads(true);
  return smoke ? tiny : full;
}

std::optional<Workload> find_workload(std::string_view name, bool smoke) {
  for (const Workload& w : all_workloads(smoke)) {
    if (name == w.name) return w;
  }
  return std::nullopt;
}

std::vector<Call> make_pool(const Workload& w, std::uint64_t seed,
                            std::size_t calls) {
  std::vector<Call> pool(calls);
  for (std::size_t c = 0; c < calls; ++c) {
    if (w.family == Family::kSkewed) {
      for (core::QueryPair& qp : core::near_duplicate_pairs(
               w.n, w.batch, /*near_fraction=*/0.75,
               std::max<std::int64_t>(1, w.n / 8), stream(seed, w.family, c))) {
        pool[c].push_back(Pair{std::move(qp.s), std::move(qp.t), qp.planted, 0});
      }
      continue;
    }
    for (std::size_t q = 0; q < w.batch; ++q) {
      const std::uint64_t i = 2 * (c * w.batch + q);
      const std::uint64_t s_seed = stream(seed, w.family, i);
      const std::uint64_t t_seed = stream(seed, w.family, i + 1);
      switch (w.family) {
        case Family::kLadder: {
          constexpr std::int64_t kRungDivisor[] = {64, 32, 16, 8};
          const std::int64_t edits = std::max<std::int64_t>(
              1, w.n / kRungDivisor[(c * w.batch + q) % std::size(kRungDivisor)]);
          pool[c].push_back(planted_pair(core::random_string(w.n, 8, s_seed),
                                         edits, t_seed, false, 8));
          break;
        }
        case Family::kPermutation:
          pool[c].push_back(planted_pair(core::random_permutation(w.n, s_seed),
                                         w.n / 16, t_seed, true, 4));
          break;
        case Family::kDna:
          pool[c].push_back(planted_pair(core::random_dna(w.n, s_seed),
                                         w.n / 16, t_seed, false, 4));
          break;
        case Family::kSkewed:
          break;
      }
    }
  }
  return pool;
}

void fill_exact(const Workload& w, std::vector<Call>& pool) {
  for (Call& call : pool) {
    for (Pair& pair : call) {
      if (w.api == Api::kBatchUlam) {
        pair.exact = seq::ulam_distance(pair.s, pair.t);
      } else {
        pair.exact_edit = seq::edit_distance_output_sensitive(pair.s, pair.t);
        pair.exact = pair.exact_edit;
      }
    }
  }
}

CallResult run_call(const Workload& w, const Call& call, std::size_t workers,
                    obs::Recorder* recorder) {
  if (w.api == Api::kSingleEdit) return run_single(w, call.at(0), workers, recorder);
  return run_batch(w, call, workers, recorder);
}

std::optional<std::vector<mpc::ExecutionTrace>> replay_guesses(
    const Workload& w, const Pair& pair, const CallResult& result,
    std::size_t workers, obs::Recorder* recorder) {
  // Mirrors edit_distance_mpc's guess loop: the same parameters and the
  // same splitmix64 seed chain over the executed guesses.
  const edit_mpc::EditMpcParams params = edit_params(w, workers, recorder);
  const std::int64_t small_limit = edit_mpc::small_distance_limit(
      static_cast<std::int64_t>(pair.s.size()), params.x);
  std::uint64_t guess_seed = params.seed;
  mpc::ExecutionTrace merged;
  std::vector<mpc::ExecutionTrace> traces;
  for (const edit_mpc::GuessOutcome& g : result.per_guess) {
    if (g.large_pipeline || g.guess > small_limit) return std::nullopt;
    guess_seed = splitmix64(guess_seed + static_cast<std::uint64_t>(g.guess));
    edit_mpc::SmallDistanceParams sp;
    sp.eps_prime = edit_mpc::edit_eps_prime(params);
    sp.x = params.x;
    sp.delta_guess = g.guess;
    sp.unit = params.unit;
    sp.approx = params.approx;
    sp.seed = guess_seed;
    sp.workers = params.workers;
    sp.strict_memory = params.strict_memory;
    sp.memory_cap_bytes = result.memory_cap_bytes;
    sp.backend = params.backend;
    sp.audit = params.audit;
    sp.recorder = recorder;
    edit_mpc::PipelineResult pipeline =
        edit_mpc::run_small_distance(pair.s, pair.t, sp);
    if (pipeline.distance != g.distance) return std::nullopt;
    merged.merge_parallel(pipeline.trace);
    traces.push_back(std::move(pipeline.trace));
  }
  if (merged.structural_hash() != result.trace.structural_hash()) {
    return std::nullopt;
  }
  return traces;
}

double approx_ratio(std::int64_t answer, std::int64_t exact) {
  return exact == 0 ? (answer == 0 ? 1.0 : static_cast<double>(answer))
                    : static_cast<double>(answer) / static_cast<double>(exact);
}

std::size_t count_failures(const Workload& w, const Call& call,
                           const CallResult& result) {
  const double slack = w.api == Api::kBatchUlam
                           ? 1.0 + ulam_mpc::UlamMpcParams{}.epsilon
                           : 3.0 + edit_mpc::EditMpcParams{}.epsilon;
  if (result.distances.size() != call.size()) return call.size();
  std::size_t failed = 0;
  for (std::size_t q = 0; q < call.size(); ++q) {
    const std::int64_t exact = call[q].exact;
    const std::int64_t answer = result.distances[q];
    if (answer < exact || result.violations[q] > 0 ||
        static_cast<double>(answer) > slack * static_cast<double>(exact)) {
      ++failed;
    }
  }
  return failed;
}

}  // namespace mpcsd::ledger
