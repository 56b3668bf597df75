#include "core/router.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <vector>

#include "common/contracts.hpp"
#include "common/env.hpp"
#include "seq/edit_distance_os.hpp"

namespace mpcsd::core {

namespace {

// ---------------------------------------------------------------------------
// Cost-model constants.  Calibrated on the reference machine with the
// router benchmark that introduced them (in git history) and gated by the
// `router` rows of BENCH_perf.json; mpcsd_verify (conf-router-constant)
// confines every kRouter* identifier to this translation unit and its
// header so re-calibration never touches the engine.  All figures are
// nanoseconds unless noted.

/// Per-pass driver overhead of one kThroughput rung (plan build, routing
/// tables, round barriers), amortised over the live queries sharing it.
constexpr double kRouterPassSharedNs = 200e3;

/// Per-query fixed cost of one rung: cell construction, seed derivation,
/// result combine.
constexpr double kRouterQueryPassNs = 100e3;

/// Per-symbol cost of one rung's machine work, parallelised over the
/// workers the plan runs on.
constexpr double kRouterQueryPassPerSymNs = 150.0;

/// Fixed cost of the sequential fast path (trim scans, mask-cache build).
constexpr double kRouterSeqSetupNs = 2e3;

/// Cost per 64-cell word of the banded bit-parallel kernel.
constexpr double kRouterSeqWordNs = 2.5;

/// The probe must undercut the predicted rung share by this factor before
/// the router spends sequential time on it (the doubling ladder's failed
/// attempts and model error live in the slack).
constexpr double kRouterMargin = 0.75;

/// Histogram lower bound only for compact alphabets: a span wider than
/// this would make the dense count array cost more than it saves.
constexpr std::int64_t kRouterHistSpanMax = 4096;

// ---------------------------------------------------------------------------

std::size_t common_prefix(SymView a, SymView b) {
  const std::size_t lim = std::min(a.size(), b.size());
  std::size_t p = 0;
  while (p < lim && a[p] == b[p]) ++p;
  return p;
}

std::size_t common_suffix(SymView a, SymView b) {
  const std::size_t lim = std::min(a.size(), b.size());
  std::size_t s = 0;
  while (s < lim && a[a.size() - 1 - s] == b[b.size() - 1 - s]) ++s;
  return s;
}

/// ed >= ceil(sum_c |count_a(c) - count_b(c)| / 2): a substitution moves
/// two counts by one, an indel moves one.  0 when the alphabet span is too
/// wide to histogram cheaply.
std::int64_t histogram_lower_bound(SymView a, SymView b) {
  if (a.empty() && b.empty()) return 0;
  Symbol lo = a.empty() ? b.front() : a.front();
  Symbol hi = lo;
  for (const Symbol c : a) {
    lo = std::min(lo, c);
    hi = std::max(hi, c);
  }
  for (const Symbol c : b) {
    lo = std::min(lo, c);
    hi = std::max(hi, c);
  }
  const auto span = static_cast<std::int64_t>(hi) - lo + 1;
  if (span > kRouterHistSpanMax) return 0;
  std::vector<std::int64_t> counts(static_cast<std::size_t>(span), 0);
  for (const Symbol c : a) ++counts[static_cast<std::size_t>(c - lo)];
  for (const Symbol c : b) --counts[static_cast<std::size_t>(c - lo)];
  std::int64_t mismatch = 0;
  for (const std::int64_t d : counts) mismatch += std::abs(d);
  return (mismatch + 1) / 2;
}

}  // namespace

std::optional<RouterPolicy> router_policy_from_string(std::string_view name) {
  if (name == "off") return RouterPolicy::kOff;
  if (name == "auto") return RouterPolicy::kAuto;
  if (name == "always-seq") return RouterPolicy::kAlwaysSeq;
  return std::nullopt;
}

const char* router_policy_name(RouterPolicy policy) noexcept {
  switch (policy) {
    case RouterPolicy::kDefault:
      return "default";
    case RouterPolicy::kOff:
      return "off";
    case RouterPolicy::kAuto:
      return "auto";
    case RouterPolicy::kAlwaysSeq:
      return "always-seq";
  }
  return "off";
}

RouterPolicyResolution resolve_router_policy(RouterPolicy requested,
                                             const char* env) noexcept {
  if (requested != RouterPolicy::kDefault) return {requested, true};
  if (env == nullptr) return {RouterPolicy::kOff, true};
  if (const auto parsed = router_policy_from_string(env)) {
    return {*parsed, true};
  }
  return {RouterPolicy::kOff, false};
}

RouterPolicy resolved_router_policy(RouterPolicy requested) {
  const char* env = std::getenv("MPCSD_ROUTER");
  const RouterPolicyResolution resolved = resolve_router_policy(requested, env);
  if (!resolved.recognised) {
    static std::atomic<bool> warned{false};
    warn_env_once(warned, "MPCSD_ROUTER", env, "off|auto|always-seq",
                  "router disabled");
  }
  return resolved.policy;
}

QueryPrefilter prefilter_query(SymView s, SymView t) {
  QueryPrefilter out;
  if (s.size() > t.size()) std::swap(s, t);
  out.prefix = static_cast<std::int64_t>(common_prefix(s, t));
  SymView a = s.subspan(static_cast<std::size_t>(out.prefix));
  SymView b = t.subspan(static_cast<std::size_t>(out.prefix));
  out.suffix = static_cast<std::int64_t>(common_suffix(a, b));
  a = a.subspan(0, a.size() - static_cast<std::size_t>(out.suffix));
  b = b.subspan(0, b.size() - static_cast<std::size_t>(out.suffix));
  out.core_n = static_cast<std::int64_t>(a.size());
  out.core_n_bar = static_cast<std::int64_t>(b.size());
  if (out.core_n_bar == 0) {
    out.equal = true;
    return out;
  }
  // Unequal strings: at least one edit, at least the length gap, at least
  // the histogram mismatch on the differing cores.
  out.lower_bound = std::max<std::int64_t>(
      {1, out.core_n_bar - out.core_n, histogram_lower_bound(a, b)});
  return out;
}

RouterBudget router_budget(std::int64_t core_n, std::int64_t core_n_bar,
                           std::size_t batch_live, std::size_t workers) {
  MPCSD_EXPECTS(core_n >= 0 && core_n_bar >= core_n);
  RouterBudget out;
  const double live = static_cast<double>(std::max<std::size_t>(1, batch_live));
  const double w = static_cast<double>(std::max<std::size_t>(1, workers));
  out.plan_ns = kRouterPassSharedNs / live + kRouterQueryPassNs +
                static_cast<double>(core_n_bar) * kRouterQueryPassPerSymNs / w;

  // Invert seq_ns(k) = setup + (n_bar + 1) * (2k/64 + 2) * word_ns for the
  // largest k still under margin * plan_ns.
  const double word_budget =
      (kRouterMargin * out.plan_ns - kRouterSeqSetupNs) / kRouterSeqWordNs;
  const double cols = static_cast<double>(core_n_bar + 1);
  const double k_real = (word_budget / cols - 2.0) * 32.0;
  const auto k_cap = static_cast<std::int64_t>(std::floor(
      std::clamp(k_real, 0.0, static_cast<double>(core_n_bar))));
  out.k_cap = k_cap;
  const double words = cols * (2.0 * static_cast<double>(k_cap) / 64.0 + 2.0);
  out.seq_ns = kRouterSeqSetupNs + words * kRouterSeqWordNs;
  return out;
}

RouteDecision route_query(SymView s, SymView t, RouterPolicy policy,
                          std::size_t batch_live, std::size_t workers) {
  RouteDecision out;
  if (policy == RouterPolicy::kOff || policy == RouterPolicy::kDefault) {
    return out;  // untouched: the plan sees the query exactly as before
  }

  const QueryPrefilter pf = prefilter_query(s, t);
  if (pf.equal) {
    out.retire = true;
    out.distance = 0;
    return out;
  }
  if (pf.core_n == 0) {
    // One core empty after trim: distance is the surviving length, free.
    out.retire = true;
    out.distance = pf.core_n_bar;
    return out;
  }

  if (policy == RouterPolicy::kAlwaysSeq) {
    out.retire = true;
    out.probed = true;
    out.k_cap = pf.core_n_bar;
    out.distance = seq::edit_distance_output_sensitive(s, t, nullptr);
    return out;
  }

  MPCSD_EXPECTS(policy == RouterPolicy::kAuto);
  const RouterBudget budget =
      router_budget(pf.core_n, pf.core_n_bar, batch_live, workers);
  out.k_cap = budget.k_cap;
  out.lower_bound = pf.lower_bound;
  if (pf.lower_bound > budget.k_cap) {
    // The prefilters already prove the probe would censor; skip it and let
    // the driver start the ladder at the first certifiable rung.
    return out;
  }
  const auto probe =
      seq::edit_distance_output_sensitive_bounded(s, t, budget.k_cap, nullptr);
  out.probed = true;
  if (probe.has_value()) {
    out.retire = true;
    out.distance = *probe;
    return out;
  }
  // Censored: the capped probe proves ed > k_cap.
  out.lower_bound = std::max(pf.lower_bound, budget.k_cap + 1);
  return out;
}

}  // namespace mpcsd::core
