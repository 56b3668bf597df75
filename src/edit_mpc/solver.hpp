// Theorem 9: the complete MPC edit-distance algorithm.
//
// The driver guesses the distance on the grid n^delta = (1+eps)^i, runs the
// two-round small-distance pipeline (Lemma 6) when n^delta <= n^{1-x/5} and
// the four-round large-distance pipeline (Lemma 8) otherwise, and takes the
// smallest valid answer.  Every pipeline returns the cost of a realizable
// transformation, so the minimum over guesses is always an upper bound on
// ed(s, s̄); for the first guess >= ed(s, s̄) it is within 3+eps, hence so
// is the final answer.
//
// One guess ladder, `run_guess_ladder`, runs B queries at once in passes.
// A pass runs the small rungs of every unresolved query as cells of one
// shared Lemma 6 round pair (edit_mpc/small_distance.hpp) and each large
// rung as its own Lemma 8 pipeline.  The mode picks the rungs of a pass:
//
//   * GuessMode::kAll — every rung in the first pass: the paper's guesses
//     side by side in the same <= 4 rounds.
//   * GuessMode::kEarlyExit — adaptive escalation (the output-sensitivity
//     idea of Dong–Gu–Liu–Sun applied to the ladder): one rung per query
//     per pass, cheapest first; a query retires once its answer certifies
//     itself (answer <= accept_threshold(guess)), which fires no later than
//     the first guess >= ed(s, s̄), so the 3+eps guarantee is unchanged.
//
// `edit_distance_mpc` is the one-query run; core::distance_batch adds the
// query router in front of a B-query run.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "edit_mpc/large_distance.hpp"
#include "edit_mpc/small_distance.hpp"
#include "mpc/stats.hpp"
#include "seq/types.hpp"

namespace mpcsd::edit_mpc {

enum class GuessMode : std::uint8_t {
  kEarlyExit,  ///< one rung per pass, ascending; stop at the first accepted one
  kAll,        ///< every rung in one pass (the literal parallel execution)
};

/// Model parameters; the execution knobs come from mpc::ExecOptions and
/// reach every guess pipeline unchanged.
struct EditMpcParams : mpc::ExecOptions {
  double x = 0.25;                 ///< memory exponent (Theorem 9: x <= 5/17)
  double epsilon = 1.0;            ///< approximation slack; eps' = eps/22
  /// Implementation floor on eps' (the paper's eps/22 is proof
  /// bookkeeping; tiny eps' only inflates the hidden poly(1/eps) factors).
  double eps_prime_floor = 0.15;
  DistanceUnit unit = DistanceUnit::kApprox3;
  seq::ApproxEditParams approx{};  ///< kApprox3 unit settings
  double rep_constant = 2.0;
  double sample_constant = 3.0;
  std::int64_t distance_cap_factor = 4;
  std::size_t max_extend_per_block = 0;
  GuessMode guess_mode = GuessMode::kEarlyExit;
  std::uint64_t seed = 19;
  double memory_slack = 8.0;       ///< constant inside the Õ_eps(n^{1-x}) cap
};

struct GuessOutcome {
  std::int64_t guess = 0;
  std::int64_t distance = 0;
  bool large_pipeline = false;
  /// The rung's own rounds: its share of its pass's Lemma 6 round pair, or
  /// its Lemma 8 pipeline's trace.
  mpc::ExecutionTrace trace;
};

struct EditMpcResult {
  std::int64_t distance = 0;
  /// First guess whose answer certified itself (answer <=
  /// accept_threshold(guess, epsilon)), in both guess modes — the meaning
  /// core::QueryResult::accepted_guess has.  0 when the strings were equal
  /// or no guess certified.
  std::int64_t accepted_guess = 0;
  std::size_t guesses_run = 0;
  std::uint64_t memory_cap_bytes = 0;
  mpc::ExecutionTrace trace;       ///< parallel merge over executed guesses
  std::vector<GuessOutcome> per_guess;  ///< executed rungs, ascending
};

/// One query of a ladder run.  The views must outlive the call.
struct LadderQuery {
  SymView s;
  SymView t;
  /// Seeds the query's rungs (params.seed + id·φ, chained along the ladder
  /// by splitmix64) and names its trace track (id + 1).
  std::uint32_t id = 0;
  /// A proven lower bound on ed(s, t): the query enters the ladder at the
  /// first rung whose accept threshold reaches it (clamped to the last).
  std::int64_t lower_bound = 0;
};

struct LadderResult {
  std::vector<EditMpcResult> queries;  ///< parallel to the input queries
  /// The shared execution: per pass, its Lemma 6 round pair merged in
  /// parallel with the pass's large rungs (<= 4 rounds per pass).
  mpc::ExecutionTrace trace;
  std::size_t passes = 0;              ///< 0 when no query needed a rung
};

/// Runs the guess ladder of every query in `params.guess_mode`, with
/// `params`' execution knobs.  Per query: distance, first self-certifying
/// guess, the executed rungs with their own traces, and their parallel
/// merge.  Equal or empty pairs are answered without a rung.
LadderResult run_guess_ladder(const std::vector<LadderQuery>& queries,
                              const EditMpcParams& params);

/// Approximates ed(s, t) within 3+eps (kApprox3 unit) with <= 4 rounds: the
/// one-query ladder run.
EditMpcResult edit_distance_mpc(SymView s, SymView t,
                                const EditMpcParams& params = {});

/// ed(s, t) when it needs no ladder: 0 for equal strings (one linear scan),
/// the other length when one is empty.
std::optional<std::int64_t> trivial_distance(SymView s, SymView t);

/// Per-machine memory budget: Õ_eps(n^{1-x}).
std::uint64_t edit_memory_cap_bytes(std::int64_t n, const EditMpcParams& params);

/// The implementation's eps' = max(eps/22, eps_prime_floor).
double edit_eps_prime(const EditMpcParams& params);

/// The self-certification bound of one guess: for any guess >= ed(s, t) the
/// small-distance pipeline answers <= (3+eps)·ed <= (3+eps)·guess, so an
/// answer within this threshold proves the ladder has reached the true
/// distance and later rungs cannot be needed (the monotone accept condition
/// of the ladder's escalation).
std::int64_t accept_threshold(std::int64_t guess, double epsilon);

/// The small/large regime boundary n^{1-x/5}.
std::int64_t small_distance_limit(std::int64_t n, double x);

}  // namespace mpcsd::edit_mpc
