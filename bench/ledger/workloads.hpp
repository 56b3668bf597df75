// The ledger's workloads: inputs generated from the seed, the one library
// call each workload loops on, and the per-query correctness checks.
//
// Every call pins the batch mode, router policy, backend and worker count
// explicitly, so MPCSD_ROUTER / MPCSD_BACKEND cannot change a workload.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "core/router.hpp"
#include "edit_mpc/solver.hpp"
#include "mpc/backend.hpp"
#include "mpc/stats.hpp"
#include "obs/recorder.hpp"
#include "seq/types.hpp"

namespace mpcsd::ledger {

enum class Api : std::uint8_t {
  kBatchEdit,   ///< core::distance_batch, kEdit, kThroughput
  kBatchUlam,   ///< core::distance_batch, kUlam
  kSingleEdit,  ///< edit_mpc::edit_distance_mpc, one pair per call
};

/// How a workload's input pairs are generated.
enum class Family : std::uint8_t {
  kLadder,       ///< random_string(n, 8) with n/64, n/32, n/16, n/8 edits
  kSkewed,       ///< near_duplicate_pairs(n, B, 0.75, n/8)
  kPermutation,  ///< random_permutation(n) with n/16 repeat-free edits
  kDna,          ///< random_dna(n) with n/16 edits
};

struct Workload {
  const char* name = "";
  Api api = Api::kBatchEdit;
  Family family = Family::kLadder;
  core::RouterPolicy router = core::RouterPolicy::kOff;
  mpc::BackendKind backend = mpc::BackendKind::kThread;
  std::int64_t n = 0;
  std::size_t batch = 1;  ///< pairs per call
  std::size_t pool = 1;   ///< distinct calls generated per seed
  std::size_t reference = 1;  ///< calls of the reference set (kReferenceSeed)
};

/// Seed of the reference set, the inputs approx_ratio_mean/max are measured
/// on.  It is the same for every --seed, so the ratios of two commits
/// compare exactly; the --seed inputs are checked against the guarantee.
inline constexpr std::uint64_t kReferenceSeed = 0;

/// The five workloads, in ledger order; `smoke` shrinks every size.
const std::vector<Workload>& all_workloads(bool smoke);
std::optional<Workload> find_workload(std::string_view name, bool smoke);

struct Pair {
  SymString s;
  SymString t;
  std::int64_t planted = 0;  ///< edits applied; ed(s, t) <= planted
  std::int64_t exact = 0;    ///< exact distance the workload computes
  /// Exact edit distance, edit workloads only (checks the seq probes).
  std::int64_t exact_edit = 0;
};

using Call = std::vector<Pair>;

/// The workload's first `calls` calls for `seed`; call c is the same for
/// every count.  Exact distances are left at 0.
std::vector<Call> make_pool(const Workload& w, std::uint64_t seed,
                            std::size_t calls);

/// Fills every pair's exact distance: seq::edit_distance_output_sensitive
/// for edit workloads, seq::ulam_distance for Ulam workloads.
void fill_exact(const Workload& w, std::vector<Call>& pool);

struct CallResult {
  std::vector<std::int64_t> distances;
  /// Per query: max machine memory / the query's memory_cap_bytes (0 for a
  /// query that ran no machines).
  std::vector<double> mem_frac;
  std::vector<std::size_t> violations;  ///< per-query memory violations
  /// The returned trace: the shared execution of a batch, or the solver's
  /// parallel merge over its guesses.
  mpc::ExecutionTrace trace;
  std::size_t passes = 0;   ///< batch escalation passes
  std::size_t rungs = 0;    ///< Σ QueryResult.rungs_run
  std::size_t guesses = 0;  ///< EditMpcResult.guesses_run
  std::uint64_t memory_cap_bytes = 0;             ///< single API only
  std::vector<edit_mpc::GuessOutcome> per_guess;  ///< single API only
};

/// One library call of the workload on `call`'s pairs.
CallResult run_call(const Workload& w, const Call& call, std::size_t workers,
                    obs::Recorder* recorder);

/// The single-query solver's returned trace merges its guesses in parallel
/// (per-round max wall), so it cannot say how long the executed rounds
/// ran.  This re-runs each guess `result` executed through the public
/// run_small_distance with the solver's parameters and seed chain, and
/// returns the per-guess traces; nullopt when a replayed guess disagrees
/// with the solver (distance or structural hash) or needed the
/// large-distance pipeline.  The replay copies the solver's private guess
/// loop, so a library change can make it disagree; that leaves the call's
/// round time unattributed, it is not a wrong answer.
std::optional<std::vector<mpc::ExecutionTrace>> replay_guesses(
    const Workload& w, const Pair& pair, const CallResult& result,
    std::size_t workers, obs::Recorder* recorder);

/// answer / exact; 1 when both are 0, and `answer` when only exact is 0
/// (a case count_failures flags).
double approx_ratio(std::int64_t answer, std::int64_t exact);

/// Failed queries of one call: below the exact distance, above
/// (3+eps)·exact for edit or (1+eps)·exact for Ulam, or over the memory cap.
std::size_t count_failures(const Workload& w, const Call& call,
                           const CallResult& result);

}  // namespace mpcsd::ledger
