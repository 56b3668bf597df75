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
// In the MPC model the guesses execute side by side in the same <= 4
// rounds; the simulator can either do that (GuessMode::kAll) or exploit
// the monotone accept condition and stop at the first accepted guess
// (kEarlyExit, the default — the reported trace is the parallel merge of
// the executed guesses either way).
#pragma once

#include <cstdint>
#include <vector>

#include "edit_mpc/large_distance.hpp"
#include "edit_mpc/small_distance.hpp"
#include "mpc/stats.hpp"
#include "seq/types.hpp"

namespace mpcsd::edit_mpc {

enum class GuessMode : std::uint8_t {
  kEarlyExit,  ///< ascending guesses; stop at the first accepted one
  kAll,        ///< run every guess (the literal parallel execution)
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
  std::size_t machines = 0;        ///< max machines over the guess's rounds
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
  std::vector<GuessOutcome> per_guess;
};

/// Approximates ed(s, t) within 3+eps (kApprox3 unit) with <= 4 rounds.
EditMpcResult edit_distance_mpc(SymView s, SymView t,
                                const EditMpcParams& params = {});

/// Per-machine memory budget: Õ_eps(n^{1-x}).
std::uint64_t edit_memory_cap_bytes(std::int64_t n, const EditMpcParams& params);

/// The implementation's eps' = max(eps/22, eps_prime_floor).
double edit_eps_prime(const EditMpcParams& params);

/// The self-certification bound of one guess: for any guess >= ed(s, t) the
/// small-distance pipeline answers <= (3+eps)·ed <= (3+eps)·guess, so an
/// answer within this threshold proves the ladder has reached the true
/// distance and later rungs cannot be needed (the monotone accept condition
/// shared by the sequential early-exit and the batch escalation mode).
std::int64_t accept_threshold(std::int64_t guess, double epsilon);

/// The small/large regime boundary n^{1-x/5}.
std::int64_t small_distance_limit(std::int64_t n, double x);

}  // namespace mpcsd::edit_mpc
