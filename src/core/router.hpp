// Per-query cost-model router in front of the batch engine.
//
// Real distance traffic is dominated by near-duplicate pairs, yet every
// live query of a kThroughput batch climbs the MPC guess ladder from the
// cheapest rung, paying plan construction, routing, and simulated-round
// overhead even when a sequential k-bounded kernel finishes in
// microseconds.  The router triages each query before pass 1:
//
//   1. zero-cost prefilters — exact equality, common prefix/suffix trim,
//      the length-difference lower bound, and a compact-alphabet histogram
//      lower bound (every edit op changes at most two symbol counts by one,
//      so ed >= ceil(sum |count_s - count_t| / 2));
//   2. a calibrated cost model predicting the sequential fast path's wall
//      time against one plan rung's from (core length, predicted k, batch
//      occupancy, worker count), granting the query a sequential budget
//      k_cap;
//   3. a capped output-sensitive probe (edit_distance_os.hpp): solved means
//      the query *retires* with the exact distance (strictly stronger than
//      the ladder's 3+eps guarantee); censored *proves* ed > k_cap, which
//      the batch driver converts into a starting rung — rungs whose accept
//      threshold lies below a proven lower bound can never self-certify,
//      so they are skipped, never run.
//
// Policies: `off` leaves the batch engine byte-identical to the pre-router
// behavior (goldens, structural hashes); `auto` applies the cost model;
// `always-seq` retires every query sequentially (the portfolio's all-fast-
// path corner, and the bench baseline).  The default resolves the
// MPCSD_ROUTER environment variable (unset -> off) through the shared
// warn-once override policy (common/env.hpp).
//
// Every decision lands on the PR 5 observability spine: the batch driver
// emits one router span per batch plus decision counters and per-query
// instants (see core/batch.cpp).
//
// The cost-model constants (kRouter*) are gated by the `router` rows of
// BENCH_perf.json and confined to src/core/router.* by mpcsd_verify
// (conf-router-constant) — heuristics must not leak into the engine.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>

#include "seq/types.hpp"

namespace mpcsd::core {

enum class RouterPolicy : std::uint8_t {
  kDefault = 0,  ///< resolve from MPCSD_ROUTER (default: off)
  kOff,          ///< never route: byte-identical to the pre-router engine
  kAuto,         ///< prefilters + cost model + capped sequential probe
  kAlwaysSeq,    ///< retire every query on the sequential fast path
};

/// Parses a `MPCSD_ROUTER` / `--router` value ("off" | "auto" |
/// "always-seq"); nullopt for anything unrecognised.
[[nodiscard]] std::optional<RouterPolicy> router_policy_from_string(
    std::string_view name);

/// Lower-case policy name, for logs/flags ("default" for kDefault).
[[nodiscard]] const char* router_policy_name(RouterPolicy policy) noexcept;

/// Pure resolution of a requested policy against an environment override —
/// testable without touching the real environment.  `kDefault` resolves
/// through `env` (the MPCSD_ROUTER value, null when unset); anything else
/// wins outright.  `recognised` is false only when `env` was consulted and
/// named no known policy (the caller warns once and routing stays off).
struct RouterPolicyResolution {
  RouterPolicy policy = RouterPolicy::kOff;
  bool recognised = true;
};
[[nodiscard]] RouterPolicyResolution resolve_router_policy(
    RouterPolicy requested, const char* env) noexcept;

/// `resolve_router_policy` against the live MPCSD_ROUTER variable, warning
/// once per process on an unrecognised value (common/env.hpp).
[[nodiscard]] RouterPolicy resolved_router_policy(RouterPolicy requested);

/// Zero-cost evidence about one (s, t) pair: O(n) scans, no DP.
struct QueryPrefilter {
  std::int64_t prefix = 0;      ///< common prefix trimmed
  std::int64_t suffix = 0;      ///< common suffix trimmed (after prefix)
  std::int64_t core_n = 0;      ///< shorter side after trim
  std::int64_t core_n_bar = 0;  ///< longer side after trim
  /// Proven ed(s, t) >= lower_bound: max of the length-difference bound,
  /// the compact-alphabet histogram bound, and 1 for unequal strings.
  std::int64_t lower_bound = 0;
  bool equal = false;  ///< s == t (lower_bound is then 0 and exact)
};
[[nodiscard]] QueryPrefilter prefilter_query(SymView s, SymView t);

/// The calibrated cost model's verdict for one query: predicted walls and
/// the sequential budget k_cap (the largest bound whose capped probe still
/// undercuts one plan rung by the safety margin; >= the core length means
/// "solve outright").  Inputs: trimmed core lengths, live queries sharing
/// the batch (amortising per-pass overhead), and the worker count the plan
/// would parallelise over.
struct RouterBudget {
  double seq_ns = 0.0;   ///< predicted sequential wall at k_cap
  double plan_ns = 0.0;  ///< predicted per-query share of one plan rung
  std::int64_t k_cap = 0;
};
[[nodiscard]] RouterBudget router_budget(std::int64_t core_n,
                                         std::int64_t core_n_bar,
                                         std::size_t batch_live,
                                         std::size_t workers);

/// One query's routing decision.  `retire` carries an *exact* distance
/// (equality, empty core, or a solved sequential probe); otherwise the
/// query goes to the plan and `lower_bound` is a proven floor on ed(s, t)
/// the driver may skip un-certifiable rungs with.
struct RouteDecision {
  bool retire = false;
  std::int64_t distance = 0;     ///< valid when `retire`
  std::int64_t lower_bound = 0;  ///< proven ed >= this (when !retire)
  std::int64_t k_cap = 0;        ///< sequential budget the model granted
  bool probed = false;           ///< ran the capped sequential probe
};
[[nodiscard]] RouteDecision route_query(SymView s, SymView t,
                                        RouterPolicy policy,
                                        std::size_t batch_live,
                                        std::size_t workers);

}  // namespace mpcsd::core
