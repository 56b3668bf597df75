// Lemma 6: the two-round small-distance pipeline (n^delta <= n^{1-x/5}).
//
// Round 1 (Algorithm 3): each machine holds one block of s plus a
//   contiguous chunk of s̄ covering a batch of candidate start points (the
//   batching is the paper's improvement over [20]: starts of one block are
//   close together when the guess is small, so several candidates share a
//   machine).  The machine computes the block-to-candidate distance for
//   every (start, end) candidate with a pluggable unit:
//     * kApprox3     — the CGKKS-style 3+eps' unit (the paper's choice,
//                      giving the overall 3+eps factor);
//     * kExactBanded — exact band doubling (1+eps overall; the unit the
//                      HSS [20] baseline uses).
// Round 2 (Algorithm 4): a single machine combines all tuples with the
//   delete+insert gap DP.
//
// One stage pair, `edit:small:distances` then `edit:small:combine`, serves
// every caller.  `run_small_cells` runs any number of (pair, guess) cells
// side by side in one shared round pair — the guess ladder in
// edit_mpc/solver.hpp runs a pass of it per escalation step — and
// `run_small_distance` is its one-cell case on a private cluster.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <tuple>
#include <vector>

#include "edit_mpc/candidates.hpp"
#include "mpc/cluster.hpp"
#include "mpc/plan.hpp"
#include "mpc/stats.hpp"
#include "seq/approx_edit.hpp"
#include "seq/combine.hpp"
#include "seq/myers.hpp"
#include "seq/types.hpp"

namespace mpcsd::edit_mpc {

enum class DistanceUnit : std::uint8_t {
  kExactBanded,  ///< exact band doubling: O(B·d) per pair
  kApprox3,      ///< CGKKS-style 3+eps' unit: Õ(B^{2-1/6}) per pair
};

/// Model parameters of one guess; the execution knobs come from
/// mpc::ExecOptions.
struct SmallDistanceParams : mpc::ExecOptions {
  double eps_prime = 0.05;           ///< eps' = eps/22
  double x = 0.25;                   ///< memory exponent (y = x here)
  std::int64_t delta_guess = 0;      ///< the distance guess n^delta
  DistanceUnit unit = DistanceUnit::kApprox3;
  seq::ApproxEditParams approx{};    ///< settings for the kApprox3 unit
  /// Batch several candidate starts per machine (the paper's improvement
  /// over [20]); false = one machine per start (the HSS baseline layout).
  bool batch_starts = true;
  std::uint64_t seed = 11;
  std::uint64_t memory_cap_bytes = UINT64_MAX;

  /// The model fields as round params (mpc::Codec); the execution knobs do
  /// not travel.
  static constexpr auto fields() {
    return std::make_tuple(
        &SmallDistanceParams::eps_prime, &SmallDistanceParams::x,
        &SmallDistanceParams::delta_guess, &SmallDistanceParams::unit,
        &SmallDistanceParams::approx, &SmallDistanceParams::batch_starts,
        &SmallDistanceParams::seed, &SmallDistanceParams::memory_cap_bytes);
  }
};

struct PipelineResult {
  std::int64_t distance = 0;   ///< cost of a realizable transformation
  mpc::ExecutionTrace trace;
};

/// Round-1 machine input of the plan-layer pipeline: one block of s plus
/// the s̄ chunk covering a batch of candidate start points.  A wire struct
/// (see mpc::Codec): members encode in declaration order, byte-identical to
/// the hand-rolled seed layout.
struct SmallTask {
  std::int64_t block_begin = 0;
  std::vector<Symbol> block;
  std::vector<std::int64_t> starts;
  std::int64_t chunk_begin = 0;
  std::vector<Symbol> chunk;

  static constexpr auto fields() {
    return std::make_tuple(&SmallTask::block_begin, &SmallTask::block,
                           &SmallTask::starts, &SmallTask::chunk_begin,
                           &SmallTask::chunk);
  }
};

/// Candidate geometry for one (s, s̄) pair under `params`.
CandidateGeometry small_geometry(std::int64_t n, std::int64_t n_bar,
                                 const SmallDistanceParams& params);

/// Builds the round-1 tasks: one per (block, start batch), with the batch
/// spanning at most B so the s̄ chunk stays within Õ(n^{1-x}).
std::vector<SmallTask> make_small_tasks(SymView s, SymView t,
                                        const SmallDistanceParams& params,
                                        const CandidateGeometry& geo);

/// The round-1 machine computation (Algorithm 3): block-vs-candidate
/// distances for every (start, end) candidate of the task, censored at the
/// guess-derived cap; runs a `BlockEvaluator` over the task's starts.
std::vector<seq::Tuple> small_task_tuples(const SmallTask& task,
                                          const SmallDistanceParams& params,
                                          const CandidateGeometry& geo,
                                          std::uint64_t* work);

/// Per-task evaluation context of `small_task_tuples`: every candidate's
/// tuple and charge come out exactly as per-candidate `unit_distance` gives
/// them, from one lane of a Myers pass per start.
///
/// A kApprox3 candidate whose unit call would be one bounded full-width
/// Myers run — the censored exact branch (`seq::censored_exact_cap`) with
/// a kMyersBounded band — reads its distance and abort point off its
/// start's lane: the block over s̄[sp, sp + L_max), L_max the longest such
/// window of the start (`seq::MyersPrefixPass`; the block's masks are
/// built once per task).  It is charged the same band cells
/// (`seq::myers_bounded_cells`).  Every other candidate calls
/// `unit_distance` unchanged: the kExactBanded unit, a side above
/// `approx.exact_cutoff` (the window cover), tiny or unprofitable bands,
/// and the length-gap and empty-window early outs.
///
/// Starts are evaluated in groups of at most `MyersPrefixPass::kMaxLanes`
/// (`small_task_tuples` takes the task's starts eight at a time on every
/// ISA): one pass runs a lane per start that has a pass read, and the
/// tuples come out in start order, ends ascending, as one start at a time
/// gives them.
class BlockEvaluator {
 public:
  /// Borrows all three for its lifetime.
  BlockEvaluator(const SmallTask& task, const SmallDistanceParams& params,
                 const CandidateGeometry& geo);

  /// Appends the tuples of `starts`' candidates (1 to kMaxLanes starts of
  /// the task), in start order with ends ascending, and charges their
  /// work.
  void evaluate_starts(std::span<const std::int64_t> starts,
                       std::vector<seq::Tuple>& out, std::uint64_t* work);

  /// Candidates resolved through `unit_distance` so far.
  [[nodiscard]] std::size_t fallbacks() const noexcept { return fallbacks_; }

 private:
  struct Candidate {
    std::int64_t start = 0;
    std::int64_t end = 0;
    SymView window;
    std::int64_t limit = 0;  ///< unit_distance's censoring limit
    std::int64_t lim = -1;   ///< band cap of the pass read; -1 = fallback
    std::size_t lane = 0;    ///< the start's lane of the pass read
  };

  const SmallTask& task_;
  const SmallDistanceParams& params_;
  const CandidateGeometry& geo_;
  std::int64_t cap_;
  std::optional<seq::MyersPrefixPass> pass_;  // built on first use
  // Per-group scratch: the starts' candidates in start order, the lanes
  // and the union of their kept columns.
  std::vector<Candidate> candidates_;
  std::vector<seq::MyersPrefixPass::Lane> lanes_;
  std::vector<std::int64_t> keep_;
  std::size_t fallbacks_ = 0;
};

/// One Lemma 6 instance of a shared round pair: a non-empty pair and one
/// guess's model parameters (its execution knobs are unused; the
/// `mpc::Driver`'s cluster runs the cell).  The views must outlive the call.
struct SmallCell {
  SymView s;
  SymView t;
  SmallDistanceParams params;
};

/// The Lemma 6 plan `edit:small`: the distances stage, then the combine
/// stage.  Repeating, so one driver can run a round pair per pass.
mpc::Plan small_plan();

/// Runs every cell's pipeline side by side in one round pair on `driver`,
/// whose plan is `small_plan()`.  Cell c owns a contiguous run of round-1
/// machines (found from per-cell first-machine offsets in the round params)
/// and combine machine c; mailbox c carries its tuples and its answer.  Each
/// machine is held to its cell's `memory_cap_bytes`.  Returns one result per
/// cell whose trace is the cell's share of the two rounds
/// (mpc::attribute_round).
std::vector<PipelineResult> run_small_cells(mpc::Driver& driver,
                                            const std::vector<SmallCell>& cells);

/// Runs the small-distance pipeline for one guess.  The result is a valid
/// upper bound on ed(s, t) regardless of the guess; when the guess is
/// >= ed(s, t) it is within 3+eps (kApprox3) or 1+eps (kExactBanded).  The
/// one-cell `run_small_cells` on a cluster of its own (`params`' execution
/// knobs, capped at `memory_cap_bytes`); the trace is that cluster's.
PipelineResult run_small_distance(SymView s, SymView t,
                                  const SmallDistanceParams& params);

/// Block-vs-candidate distance through the selected unit, censored at
/// `cap`: returns nullopt when the (possibly approximate) distance exceeds
/// it.  Censoring is sound — a tuple costing more than the accepted guess
/// can never participate in an accepted solution — and keeps the per-pair
/// cost at O(B·cap) instead of O(B·d).  Values returned are upper bounds on
/// ed(a, b); exact for kExactBanded.
std::optional<std::int64_t> unit_distance(SymView a, SymView b, DistanceUnit unit,
                                          const seq::ApproxEditParams& approx,
                                          std::int64_t cap, std::uint64_t* work);

}  // namespace mpcsd::edit_mpc
