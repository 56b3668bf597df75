#include "core/batch.hpp"

#include <stdexcept>

#include "common/thread_pool.hpp"

namespace mpcsd::core {

namespace {

// ---------------------------------------------------------------------
// Ulam batch: one run of the Theorem 4 pipeline (ulam_mpc::run_ulam_pipeline)
// over every query; mailbox = query index.  There is no guess ladder, so
// BatchMode does not change the execution.
// ---------------------------------------------------------------------

BatchResult run_ulam_batch(const BatchRequest& request) {
  ulam_mpc::UlamMpcParams params = request.ulam;
  params.recorder = request.recorder;
  std::vector<ulam_mpc::UlamQuery> queries;
  queries.reserve(request.queries.size());
  for (const BatchQuery& query : request.queries) {
    queries.push_back(ulam_mpc::UlamQuery{SymView(query.s), SymView(query.t)});
  }

  ulam_mpc::UlamPipelineResult run = ulam_mpc::run_ulam_pipeline(queries, params);
  BatchResult result;
  result.queries.resize(request.queries.size());
  for (std::size_t q = 0; q < queries.size(); ++q) {
    ulam_mpc::UlamMpcResult& r = run.queries[q];
    QueryResult& qr = result.queries[q];
    qr.distance = r.distance;
    qr.memory_cap_bytes = r.memory_cap_bytes;
    qr.trace = std::move(r.trace);
  }
  result.trace = std::move(run.trace);
  result.passes = run.passes;
  return result;
}

// ---------------------------------------------------------------------
// Edit batch: router triage, then one run of the guess ladder
// (edit_mpc::run_guess_ladder) over every query the router left in.
// ---------------------------------------------------------------------

BatchResult run_edit_batch(const BatchRequest& request) {
  edit_mpc::EditMpcParams params = request.edit;
  params.recorder = request.recorder;
  params.guess_mode = request.mode == BatchMode::kThroughput
                          ? edit_mpc::GuessMode::kEarlyExit
                          : edit_mpc::GuessMode::kAll;
  BatchResult result;
  result.queries.resize(request.queries.size());

  // The router triages live queries before pass 1 (core/router.hpp): under
  // kAuto the prefilters + capped sequential probe either retire a query
  // with its exact distance or prove a lower bound that picks its starting
  // rung; kOff leaves every query at the bottom of its ladder.  Decisions
  // depend only on query content, batch occupancy, and the worker count —
  // never on the execution backend — so the batch trace hash stays
  // backend-independent under every policy.
  const RouterPolicy policy = request.mode == BatchMode::kThroughput
                                  ? resolved_router_policy(request.router)
                                  : RouterPolicy::kOff;
  std::vector<RouteDecision> decisions(request.queries.size());
  if (policy == RouterPolicy::kAuto || policy == RouterPolicy::kAlwaysSeq) {
    std::vector<std::uint32_t> live;
    for (std::uint32_t q = 0; q < request.queries.size(); ++q) {
      const BatchQuery& query = request.queries[q];
      if (!edit_mpc::trivial_distance(SymView(query.s), SymView(query.t))) {
        live.push_back(q);
      }
    }
    obs::Recorder* rec = request.recorder;
    const bool tracing = rec != nullptr && rec->enabled();
    obs::Span router_span(rec, "router:triage", "router");
    router_span.arg("live", static_cast<double>(live.size()));
    ThreadPool pool(params.workers);
    pool.parallel_for(
        live.size(),
        [&](std::size_t i) {
          const std::uint32_t q = live[i];
          const BatchQuery& query = request.queries[q];
          decisions[q] = route_query(SymView(query.s), SymView(query.t),
                                     policy, live.size(), pool.worker_count());
        },
        /*grain=*/1);
    std::uint64_t retired = 0;
    std::uint64_t probed = 0;
    std::uint64_t lower_bounded = 0;
    for (const std::uint32_t q : live) {
      const RouteDecision& d = decisions[q];
      retired += d.retire ? 1 : 0;
      probed += d.probed ? 1 : 0;
      lower_bounded += (!d.retire && d.lower_bound > 0) ? 1 : 0;
      if (tracing) {
        rec->instant("router:decision", "router",
                     {{"query", static_cast<double>(q)},
                      {"retired", d.retire ? 1.0 : 0.0},
                      {"probed", d.probed ? 1.0 : 0.0},
                      {"k_cap", static_cast<double>(d.k_cap)},
                      {"lower_bound", static_cast<double>(d.lower_bound)}},
                     q + 1);
      }
    }
    if (tracing) {
      rec->counter("router.examined", "router", static_cast<double>(live.size()));
      rec->counter("router.retired_seq", "router", static_cast<double>(retired));
      rec->counter("router.probed", "router", static_cast<double>(probed));
      rec->counter("router.lower_bounded", "router",
                   static_cast<double>(lower_bounded));
      rec->counter("router.to_plan", "router",
                   static_cast<double>(live.size() - retired));
    }
    router_span.arg("retired", static_cast<double>(retired));
  }

  std::vector<edit_mpc::LadderQuery> ladder;
  for (std::uint32_t q = 0; q < request.queries.size(); ++q) {
    const BatchQuery& query = request.queries[q];
    if (decisions[q].retire) {
      // Routed to the sequential fast path: exact distance, no rungs, no
      // share of any shared round (accepted_guess stays 0, like a query the
      // ladder could not certify — exactness is the stronger guarantee).
      result.queries[q].distance = decisions[q].distance;
      result.queries[q].memory_cap_bytes = edit_mpc::edit_memory_cap_bytes(
          static_cast<std::int64_t>(query.s.size()), params);
      continue;
    }
    ladder.push_back(edit_mpc::LadderQuery{SymView(query.s), SymView(query.t), q,
                                           decisions[q].lower_bound});
  }

  edit_mpc::LadderResult run = edit_mpc::run_guess_ladder(ladder, params);
  for (std::size_t i = 0; i < ladder.size(); ++i) {
    edit_mpc::EditMpcResult& r = run.queries[i];
    QueryResult& qr = result.queries[ladder[i].id];
    qr.distance = r.distance;
    qr.accepted_guess = r.accepted_guess;
    qr.rungs_run = r.guesses_run;
    qr.memory_cap_bytes = r.memory_cap_bytes;
    if (request.mode == BatchMode::kThroughput) {
      for (const edit_mpc::GuessOutcome& g : r.per_guess) {
        qr.trace.append_sequential(g.trace);
      }
    } else {
      qr.trace = std::move(r.trace);
    }
  }
  result.trace = std::move(run.trace);
  result.passes = run.passes;
  return result;
}

}  // namespace

BatchResult distance_batch(const BatchRequest& request) {
  if (request.ulam.recorder != nullptr || request.edit.recorder != nullptr) {
    throw std::invalid_argument(
        "distance_batch: set BatchRequest::recorder, not ulam.recorder or "
        "edit.recorder");
  }
  if (request.queries.empty()) return BatchResult{};
  switch (request.algorithm) {
    case BatchAlgorithm::kUlam:
      return run_ulam_batch(request);
    case BatchAlgorithm::kEdit:
      return run_edit_batch(request);
  }
  throw std::invalid_argument("distance_batch: unknown algorithm");
}

}  // namespace mpcsd::core
