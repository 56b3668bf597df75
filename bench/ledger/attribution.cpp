#include "attribution.hpp"

#include <algorithm>
#include <numeric>

namespace mpcsd::ledger {

namespace {

constexpr double kSecondsPerUs = 1e-6;

std::uint64_t end_us(const SpanEvent& s) { return s.ts_us + s.dur_us; }

bool contains(const SpanEvent& outer, const SpanEvent& inner) {
  return inner.ts_us >= outer.ts_us && end_us(inner) <= end_us(outer);
}

}  // namespace

void LedgerSink::record(const obs::TraceEvent& event) {
  if (event.kind == obs::EventKind::kSpan) {
    Rollup& r = rollup_[{event.category, event.name}];
    ++r.count;
    r.total_us += event.dur_us;
    // Tracks other than 0 carry attributed per-query shares and per-worker
    // spans, which overlap the driver plane instead of nesting in it.
    if (event.track == 0) {
      current_.spans.push_back(SpanEvent{event.category, event.name, event.ts_us,
                                         event.dur_us, order_++});
    }
  } else if (event.kind == obs::EventKind::kCounter && !event.args.empty()) {
    current_.counters.push_back(
        CounterSample{event.name, event.ts_us, event.args.front().value});
  }
}

CallEvents LedgerSink::take_call() {
  CallEvents out = std::move(current_);
  current_ = CallEvents{};
  return out;
}

Attribution attribute(double call_wall, const std::vector<SpanEvent>& spans,
                      const std::vector<double>* round_walls, bool batch_call) {
  // Parents start no later and end no earlier than their children; on equal
  // intervals the parent is the one emitted later (spans emit at their end).
  std::vector<std::size_t> by_start(spans.size());
  std::iota(by_start.begin(), by_start.end(), std::size_t{0});
  std::sort(by_start.begin(), by_start.end(), [&](std::size_t a, std::size_t b) {
    const SpanEvent& x = spans[a];
    const SpanEvent& y = spans[b];
    if (x.ts_us != y.ts_us) return x.ts_us < y.ts_us;
    if (end_us(x) != end_us(y)) return end_us(x) > end_us(y);
    return x.order > y.order;
  });
  std::vector<std::uint64_t> child_us(spans.size(), 0);
  std::uint64_t top_level_us = 0;
  std::vector<std::size_t> open;
  for (const std::size_t i : by_start) {
    while (!open.empty() && !contains(spans[open.back()], spans[i])) open.pop_back();
    (open.empty() ? top_level_us : child_us[open.back()]) += spans[i].dur_us;
    open.push_back(i);
  }

  // Round spans in emission order are the trace's rounds in order.
  std::vector<std::size_t> rounds;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].category == "round") rounds.push_back(i);
  }

  Attribution a;
  a.round_spans = rounds.size();
  for (std::size_t k = 0; round_walls != nullptr && k < rounds.size() &&
                          k < round_walls->size();
       ++k) {
    const double dur = static_cast<double>(spans[rounds[k]].dur_us) * kSecondsPerUs;
    a.exec += (*round_walls)[k];
    a.cluster_self += dur - (*round_walls)[k];
  }
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanEvent& s = spans[i];
    const double self =
        (static_cast<double>(s.dur_us) - static_cast<double>(child_us[i])) * kSecondsPerUs;
    if (s.category == "round") continue;
    if (s.category == "stage") {
      a.plan_self += self;
      a.stage_totals[s.name] += static_cast<double>(s.dur_us) * kSecondsPerUs;
    } else if (s.category == "batch") {
      a.batch_self += self;
    } else if (s.category == "router") {
      a.router_self += self;
    } else if (s.category == "solver") {
      a.solver_self += self;
    } else if (s.category == "pipeline") {
      a.pipeline_self += self;
    }
  }
  const double call_self =
      call_wall - static_cast<double>(top_level_us) * kSecondsPerUs;
  (batch_call ? a.batch_self : a.solver_self) += call_self;
  return a;
}

Attribution& Attribution::operator+=(const Attribution& other) {
  batch_self += other.batch_self;
  router_self += other.router_self;
  solver_self += other.solver_self;
  pipeline_self += other.pipeline_self;
  plan_self += other.plan_self;
  cluster_self += other.cluster_self;
  exec += other.exec;
  round_spans += other.round_spans;
  for (const auto& [label, seconds] : other.stage_totals) stage_totals[label] += seconds;
  return *this;
}

double counter_total(const CallEvents& events, std::string_view name) {
  std::vector<const SpanEvent*> pipelines;
  for (const SpanEvent& s : events.spans) {
    if (s.category == "pipeline") pipelines.push_back(&s);
  }
  // Last sample per cluster: index pipelines.size() is "outside any".
  std::vector<double> last(pipelines.size() + 1, 0.0);
  for (const CounterSample& c : events.counters) {
    if (c.name != name) continue;
    std::size_t cluster = pipelines.size();
    for (std::size_t p = 0; p < pipelines.size(); ++p) {
      const SpanEvent& s = *pipelines[p];
      if (c.ts_us >= s.ts_us && c.ts_us <= end_us(s)) {
        cluster = p;
        break;
      }
    }
    last[cluster] = c.value;
  }
  return std::accumulate(last.begin(), last.end(), 0.0);
}

}  // namespace mpcsd::ledger
