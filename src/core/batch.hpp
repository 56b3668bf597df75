// Batched multi-query execution on the round-plan layer.
//
// `distance_batch` runs B independent (s, t) queries through a SINGLE plan
// execution: machines of different queries coexist in the same simulated
// rounds.  Mailboxes are partitioned per query, per-machine memory caps are
// enforced at each query's own Õ_eps(n^{1-x}) budget (RoundOptions), and
// every query gets its own attributed ExecutionTrace built from the
// machine-level reports.
//
// Edit batches are one run of the guess ladder (edit_mpc::run_guess_ladder,
// edit_mpc/solver.hpp) over every rung, small (Lemma 6) or large (Lemma 8),
// in one of two modes:
//
//   * kParallelGuess — the paper's semantics made literal (GuessMode::kAll):
//     every (query, guess) rung in one pass, the small ones side by side in
//     one shared round pair, the large ones' four rounds beside it (<= 4
//     rounds).  Total work is Σ over ALL rungs of every query — the right
//     model quantity, but on a real host most of it belongs to rungs
//     escalation never runs.
//   * kThroughput   — adaptive guess escalation (GuessMode::kEarlyExit):
//     every live query starts at its cheapest rung; each pass runs the
//     current rung of every unresolved query; queries whose answer
//     certifies itself (answer <= (3+eps)·guess + 2) retire, and only the
//     survivors re-enter at their next rung.  Expected work drops from
//     Σ(all rungs) to Σ(rungs up to the accepted one) per query, at the
//     cost of extra — metered and reported — simulated rounds: the shared
//     trace carries 2 rounds per small-rung pass (4 when a large rung runs).
//     The 3+eps guarantee is unchanged whp: retirement only happens on the
//     self-certifying condition, which fires no later than the first rung
//     >= ed(s, t).
//
// `edit_distance_mpc` is the same ladder run on one query without the
// router, so both entry points answer alike.
//
// Ulam batches are one run of the Theorem 4 pipeline
// (ulam_mpc::run_ulam_pipeline, ulam_mpc/solver.hpp), of which
// `ulam_distance_mpc` is the one-query run.  Ulam has no guess ladder, so
// both modes execute identically for kUlam.
//
// The returned edit distance is always the cost of a realizable
// transformation (an upper bound on ed), within 3+eps whp.
#pragma once

#include <cstdint>
#include <vector>

#include "core/router.hpp"
#include "edit_mpc/solver.hpp"
#include "mpc/stats.hpp"
#include "obs/recorder.hpp"
#include "seq/types.hpp"
#include "ulam_mpc/solver.hpp"

namespace mpcsd::core {

enum class BatchAlgorithm : std::uint8_t {
  kUlam,  ///< Theorem 4 (strings must be repeat-free)
  kEdit,  ///< Theorem 9
};

enum class BatchMode : std::uint8_t {
  /// All guess rungs of every query side by side in one pass of <= 4 shared
  /// rounds (the paper-literal semantics; work is worst-case, rounds are
  /// minimal).
  kParallelGuess,
  /// Adaptive guess escalation: cheapest rung first, retire queries whose
  /// answer certifies itself, re-enter the plan with the survivors.  Work
  /// is output-sensitive; the shared trace has 2 rounds per pass (4 when a
  /// large rung runs).
  kThroughput,
};

struct BatchQuery {
  std::vector<Symbol> s;
  std::vector<Symbol> t;
};

struct BatchRequest {
  BatchAlgorithm algorithm = BatchAlgorithm::kUlam;
  BatchMode mode = BatchMode::kParallelGuess;
  std::vector<BatchQuery> queries;
  /// Solver settings for kUlam batches (x, epsilon, seed, memory_slack,
  /// combine_gap, in_model_position_map — each live query's join runs on
  /// the shared cluster before the candidates round) and the batch's
  /// mpc::ExecOptions except the recorder.
  ulam_mpc::UlamMpcParams ulam;
  /// Solver settings for kEdit batches (x, epsilon, unit, seed, ...) and
  /// the batch's mpc::ExecOptions except the recorder.
  edit_mpc::EditMpcParams edit;
  /// Query-router policy (kEdit + kThroughput only; other combinations
  /// ignore it).  `kOff` keeps the engine byte-identical to the pre-router
  /// behavior.  Under `kAuto`/`kAlwaysSeq` a routed-away query *retires*
  /// with its exact sequential distance: accepted_guess = 0, rungs_run = 0,
  /// an empty per-query trace, and no share of any shared round; a routed
  /// lower bound instead makes the query enter the ladder at the first
  /// rung whose accept threshold it could certify (skipped rungs are never
  /// executed and do not count in rungs_run).  `kDefault` resolves
  /// MPCSD_ROUTER (unset = off).  See core/router.hpp.
  RouterPolicy router = RouterPolicy::kDefault;
  /// Observability recorder (null = detached).  The shared rounds emit
  /// round/stage spans through the cluster; the ladder additionally emits
  /// one `edit:pass` span per escalation pass and, on track `query id + 1`,
  /// one attributed `edit:rung` span per (query, guess rung).  This is the only recorder a batch
  /// reads: `ulam.recorder` and `edit.recorder` must stay null, and
  /// distance_batch throws std::invalid_argument if either is set.
  obs::Recorder* recorder = nullptr;
};

struct QueryResult {
  std::int64_t distance = 0;
  /// First guess whose answer certified itself (kEdit; 0 for kUlam, and 0
  /// when the ladder was exhausted without certification).
  std::int64_t accepted_guess = 0;
  /// Guess rungs this query executed: the full ladder in kParallelGuess,
  /// the escalation prefix in kThroughput (0 for kUlam).
  std::size_t rungs_run = 0;
  /// This query's own per-machine cap, enforced on its machines only.
  std::uint64_t memory_cap_bytes = 0;
  /// This query's share of the shared rounds: labels, machine counts,
  /// work, comm bytes, memory maxima — attributed from machine reports.
  /// The rungs' own traces (edit_mpc::GuessOutcome::trace), appended one
  /// after another in kThroughput and merged in parallel in kParallelGuess.
  mpc::ExecutionTrace trace;
};

struct BatchResult {
  std::vector<QueryResult> queries;
  /// The shared physical execution: 2 rounds for kUlam (plus 2 per live
  /// query with the in-model position map, 0 with no live query), <= 4 in
  /// kParallelGuess, 2 (or 4 with a large rung) per escalation pass in
  /// kThroughput.
  mpc::ExecutionTrace trace;
  /// Escalation passes executed (1 for kParallelGuess / kUlam batches with
  /// live queries, 0 when no query needed a rung).
  std::size_t passes = 0;
};

/// Runs every query of `request` in one shared plan execution.
BatchResult distance_batch(const BatchRequest& request);

}  // namespace mpcsd::core
