// Theorem 4: the two-round MPC algorithm for Ulam distance.
//
// Round 1 — one machine per block of size B = n^{1-x}: each machine
//   receives its block's character positions in s̄ (Õ(n^{1-x}) bytes) and
//   emits candidate tuples (Algorithm 1).
// Round 2 — a single machine receives all Õ_eps(n^x) tuples and runs the
//   combine DP (Algorithm 2).
//
// One pipeline, `run_ulam_pipeline`, runs B queries at once: every query's
// block machines share round 1 (`batch:ulam:candidates`) and every query's
// combine machine shares round 2 (`batch:ulam:combine`), with mailbox =
// query index and each machine held to its own query's cap.
// `ulam_distance_mpc` is the one-query run; core::distance_batch is the
// B-query run.
//
// The returned distance is the cost of a realizable transformation (always
// >= ulam(s, s̄)) and is <= (1+eps)·ulam(s, s̄) with high probability.
#pragma once

#include <cstdint>
#include <vector>

#include "mpc/cluster.hpp"
#include "mpc/stats.hpp"
#include "seq/combine.hpp"
#include "seq/types.hpp"
#include "ulam_mpc/candidates.hpp"

namespace mpcsd::ulam_mpc {

/// Model parameters; the execution knobs come from mpc::ExecOptions.
struct UlamMpcParams : mpc::ExecOptions {
  double x = 1.0 / 3;          ///< memory exponent: B = n^{1-x}; needs x < 1/2
  double epsilon = 0.5;        ///< approximation slack (eps' = eps/2 internally)
  double theta_constant = 8.0; ///< hitting-set rate constant (paper: 8)
  std::uint64_t seed = 7;
  double memory_slack = 8.0;   ///< constant inside the Õ_eps(n^{1-x}) cap
  /// Build the character-position map with an in-model MPC hash join (two
  /// extra rounds per query, run one query after another before round 1)
  /// instead of driver-side routing.  The paper's two-round count assumes
  /// the input is already distributed; this flag makes that assumption
  /// itself run through the simulator.
  bool in_model_position_map = false;
  /// Gap charging of the combine DP.  Algorithm 2 uses kMax (substitute the
  /// paired stretch); kSum is the Algorithm 4 variant, exposed for the
  /// DESIGN.md ablation.
  seq::GapCost combine_gap = seq::GapCost::kMax;
};

struct UlamMpcResult {
  std::int64_t distance = 0;
  std::int64_t block_size = 0;
  std::size_t block_count = 0;
  std::uint64_t memory_cap_bytes = 0;
  /// From `ulam_distance_mpc`: the whole execution.  Per query of a
  /// pipeline run: the query's join rounds and its share of the shared
  /// round pair, attributed from machine reports.
  mpc::ExecutionTrace trace;
};

/// One query of a pipeline run.  The views must outlive the call.
struct UlamQuery {
  SymView s;
  SymView t;
};

struct UlamPipelineResult {
  std::vector<UlamMpcResult> queries;  ///< parallel to the input queries
  /// The shared execution: each query's join rounds (in-model position
  /// map), then the candidates and combine rounds.
  mpc::ExecutionTrace trace;
  std::size_t passes = 0;              ///< 0 when no query had a block
};

/// Runs Theorem 4 on every query in one shared round pair.  A query with
/// empty s is answered |t| without machines; when no query has a block,
/// no round runs.  Preconditions: every string repeat-free.
UlamPipelineResult run_ulam_pipeline(const std::vector<UlamQuery>& queries,
                                     const UlamMpcParams& params);

/// Approximates ulam(s, t): the one-query pipeline run.  Preconditions:
/// both strings repeat-free.
UlamMpcResult ulam_distance_mpc(SymView s, SymView t,
                                const UlamMpcParams& params = {});

/// The per-machine memory budget the solver configures: Õ_eps(n^{1-x}).
std::uint64_t ulam_memory_cap_bytes(std::int64_t n, const UlamMpcParams& params);

}  // namespace mpcsd::ulam_mpc
