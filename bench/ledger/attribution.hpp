// Wall-clock attribution of one library call to the library's layers,
// built from outside the library: the spans and counters it already emits
// and the RoundReport walls of the ExecutionTrace it returns.
//
// A layer's self time is its spans' durations minus their child spans.
// Leaves are the round spans, split into backend execute
// (RoundReport.wall_seconds) and cluster self (routing, arenas, metering).
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/recorder.hpp"
#include "obs/trace.hpp"

namespace mpcsd::ledger {

struct SpanEvent {
  std::string category;
  std::string name;
  std::uint64_t ts_us = 0;
  std::uint64_t dur_us = 0;
  std::size_t order = 0;  ///< emission order (spans emit when they end)
};

struct CounterSample {
  std::string name;
  std::uint64_t ts_us = 0;
  double value = 0.0;
};

/// One call's driver-plane (track 0) spans and its counter samples.
struct CallEvents {
  std::vector<SpanEvent> spans;
  std::vector<CounterSample> counters;
};

/// Rolls spans up by (category, name) and buffers the current call's
/// events.  obs::AggregateSink keys spans by name alone, so a round span
/// and the plan-stage span that shares its label merge into one row there.
class LedgerSink : public obs::Sink {
 public:
  struct Rollup {
    std::uint64_t count = 0;
    std::uint64_t total_us = 0;
  };
  using Key = std::pair<std::string, std::string>;  ///< (category, name)

  void record(const obs::TraceEvent& event) override;

  [[nodiscard]] const std::map<Key, Rollup>& rollup() const noexcept {
    return rollup_;
  }

  /// Hands over the events buffered since the previous call.
  CallEvents take_call();

 private:
  std::map<Key, Rollup> rollup_;
  CallEvents current_;
  std::size_t order_ = 0;
};

/// Self seconds of one call (or a sum of calls) per layer.  What the
/// fields leave of the call's wall is unattributed: rounds without walls
/// and spans of a category the ledger does not map.
struct Attribution {
  double batch_self = 0.0;     ///< core.batch: batch spans and the call itself
  double router_self = 0.0;    ///< core.router: the router span
  double solver_self = 0.0;    ///< solver spans and the single-query call itself
  double pipeline_self = 0.0;  ///< edit_mpc pipeline spans
  double plan_self = 0.0;      ///< mpc plan: stage spans minus their rounds
  double cluster_self = 0.0;   ///< mpc cluster: round spans minus execute
  double exec = 0.0;           ///< mpc backend execute: Σ wall_seconds
  std::size_t round_spans = 0;
  std::map<std::string, double> stage_totals;  ///< stage label -> Σ seconds

  [[nodiscard]] double attributed() const noexcept {
    return batch_self + router_self + solver_self + pipeline_self + plan_self +
           cluster_self + exec;
  }

  Attribution& operator+=(const Attribution& other);
};

/// Partitions `call_wall` seconds over `spans`, given in emission order as
/// LedgerSink buffers them.  `round_walls` holds
/// RoundReport.wall_seconds in round order and splits each round span into
/// exec and cluster self; with null, round time stays unattributed.
/// Time in the call outside every span belongs to the called module:
/// core.batch for a batch call, the solver for a single-query call.
Attribution attribute(double call_wall, const std::vector<SpanEvent>& spans,
                      const std::vector<double>* round_walls, bool batch_call);

/// Counter `name` summed over clusters.  Cluster counters are cumulative,
/// so each cluster contributes its last sample; a cluster is the pipeline
/// span it runs in, or the whole call outside pipeline spans.
double counter_total(const CallEvents& events, std::string_view name);

}  // namespace mpcsd::ledger
