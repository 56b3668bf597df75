// The built-in trace sinks of the observability spine.
//
//   * JsonlSink       — one self-contained JSON object per event per line;
//                       the streaming interchange format (mpcsd_cli
//                       --trace-format jsonl), trivially greppable and
//                       round-trip parseable.
//   * ChromeTraceSink — the Chrome trace-event JSON object format
//                       ({"traceEvents": [...]}): spans become "X"
//                       (complete) events, counters "C", instants "i".
//                       Open the file directly in chrome://tracing or
//                       https://ui.perfetto.dev.
//   * AggregateSink   — in-memory rollup: spans aggregate per (category,
//                       name) (count / total / min / max duration, last
//                       args), counters per name (count / last / sum).  The
//                       perf suite reads the router decision counters from
//                       it.
//
// Sinks are driven single-threaded (the Recorder serialises dispatch);
// the string/report accessors are meant to be called after the runs being
// traced have completed.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "obs/recorder.hpp"
#include "obs/trace.hpp"

namespace mpcsd::obs {

/// JSON-escapes `s` (quotes, backslashes, control characters).
std::string json_escape(const std::string& s);

/// Formats a double as a JSON number: integral values print without a
/// fractional part, everything else with enough digits to round-trip.
std::string json_number(double value);

class JsonlSink : public Sink {
 public:
  void record(const TraceEvent& event) override;

  /// The JSONL text accumulated so far.
  [[nodiscard]] const std::string& text() const noexcept { return text_; }
  /// Writes the accumulated text to `path`; false on IO failure.
  bool write_file(const std::string& path) const;
  [[nodiscard]] std::size_t event_count() const noexcept { return events_; }

 private:
  std::string text_;
  std::size_t events_ = 0;
};

class ChromeTraceSink : public Sink {
 public:
  void record(const TraceEvent& event) override;

  /// The complete Chrome trace-event JSON object.
  [[nodiscard]] std::string to_string() const;
  bool write_file(const std::string& path) const;
  [[nodiscard]] std::size_t event_count() const noexcept {
    return events_.size();
  }

 private:
  std::vector<TraceEvent> events_;
};

class AggregateSink : public Sink {
 public:
  /// (category, name).  Spans of different categories may share a label
  /// (a plan stage and the round it runs in) yet time different things, so
  /// they never merge.
  using SpanKey = std::pair<std::string, std::string>;
  struct SpanStats {
    std::uint64_t count = 0;
    std::uint64_t total_dur_us = 0;
    std::uint64_t min_dur_us = UINT64_MAX;
    std::uint64_t max_dur_us = 0;
    /// The args of the most recent span with this key (benches emit one
    /// uniquely named span per record, so "last" is "the" record).
    std::vector<Arg> last_args;
  };
  struct CounterStats {
    std::uint64_t count = 0;
    double last = 0.0;
    double sum = 0.0;
  };

  void record(const TraceEvent& event) override;

  [[nodiscard]] const std::map<SpanKey, SpanStats>& spans() const noexcept {
    return spans_;
  }
  [[nodiscard]] const std::map<std::string, CounterStats>& counters()
      const noexcept {
    return counters_;
  }

  /// {"spans": [...], "counters": [...]} with one span row per (category,
  /// name) and one counter row per name.
  [[nodiscard]] std::string to_json() const;
  bool write_file(const std::string& path) const;

 private:
  std::map<SpanKey, SpanStats> spans_;
  std::map<std::string, CounterStats> counters_;
};

}  // namespace mpcsd::obs
