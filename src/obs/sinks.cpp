#include "obs/sinks.hpp"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <fstream>

namespace mpcsd::obs {

namespace {

const char* kind_name(EventKind kind) {
  switch (kind) {
    case EventKind::kSpan:
      return "span";
    case EventKind::kCounter:
      return "counter";
    case EventKind::kInstant:
      return "instant";
  }
  return "unknown";
}

/// Chrome trace-event phase of one event kind.
const char* chrome_phase(EventKind kind) {
  switch (kind) {
    case EventKind::kSpan:
      return "X";
    case EventKind::kCounter:
      return "C";
    case EventKind::kInstant:
      return "i";
  }
  return "i";
}

void append_args_object(std::string& out, const std::vector<Arg>& args) {
  out += '{';
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (i != 0) out += ',';
    out += '"';
    out += json_escape(args[i].key);
    out += "\":";
    out += json_number(args[i].value);
  }
  out += '}';
}

bool write_text_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  out << text;
  return static_cast<bool>(out);
}

}  // namespace

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string json_number(double value) {
  if (std::isfinite(value) && value == std::floor(value) &&
      std::fabs(value) < 9.007199254740992e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%" PRId64, static_cast<std::int64_t>(value));
    return buf;
  }
  if (!std::isfinite(value)) return "0";  // JSON has no inf/nan
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

// ---------------------------------------------------------------------------
// JsonlSink
// ---------------------------------------------------------------------------

void JsonlSink::record(const TraceEvent& event) {
  text_ += "{\"kind\":\"";
  text_ += kind_name(event.kind);
  text_ += "\",\"name\":\"";
  text_ += json_escape(event.name);
  text_ += "\",\"cat\":\"";
  text_ += json_escape(event.category);
  text_ += "\",\"ts_us\":";
  text_ += json_number(static_cast<double>(event.ts_us));
  if (event.kind == EventKind::kSpan) {
    text_ += ",\"dur_us\":";
    text_ += json_number(static_cast<double>(event.dur_us));
  }
  text_ += ",\"track\":";
  text_ += json_number(static_cast<double>(event.track));
  text_ += ",\"args\":";
  append_args_object(text_, event.args);
  text_ += "}\n";
  ++events_;
}

bool JsonlSink::write_file(const std::string& path) const {
  return write_text_file(path, text_);
}

// ---------------------------------------------------------------------------
// ChromeTraceSink
// ---------------------------------------------------------------------------

void ChromeTraceSink::record(const TraceEvent& event) {
  events_.push_back(event);
}

std::string ChromeTraceSink::to_string() const {
  std::string out = "{\"traceEvents\":[\n";
  for (std::size_t i = 0; i < events_.size(); ++i) {
    const TraceEvent& e = events_[i];
    out += "{\"name\":\"";
    out += json_escape(e.name);
    out += "\",\"cat\":\"";
    out += json_escape(e.category.empty() ? "mpcsd" : e.category);
    out += "\",\"ph\":\"";
    out += chrome_phase(e.kind);
    out += "\",\"ts\":";
    out += json_number(static_cast<double>(e.ts_us));
    if (e.kind == EventKind::kSpan) {
      out += ",\"dur\":";
      out += json_number(static_cast<double>(e.dur_us));
    }
    if (e.kind == EventKind::kInstant) {
      out += ",\"s\":\"t\"";  // thread-scoped instant
    }
    out += ",\"pid\":0,\"tid\":";
    out += json_number(static_cast<double>(e.track));
    out += ",\"args\":";
    append_args_object(out, e.args);
    out += '}';
    if (i + 1 < events_.size()) out += ',';
    out += '\n';
  }
  out += "],\"displayTimeUnit\":\"ms\"}\n";
  return out;
}

bool ChromeTraceSink::write_file(const std::string& path) const {
  return write_text_file(path, to_string());
}

// ---------------------------------------------------------------------------
// AggregateSink
// ---------------------------------------------------------------------------

void AggregateSink::record(const TraceEvent& event) {
  if (event.kind == EventKind::kCounter) {
    CounterStats& c = counters_[event.name];
    ++c.count;
    c.last = event.args.empty() ? 0.0 : event.args.front().value;
    c.sum += c.last;
    return;
  }
  // Instants aggregate like zero-duration spans: they still count.
  SpanStats& s = spans_[SpanKey{event.category, event.name}];
  ++s.count;
  s.total_dur_us += event.dur_us;
  s.min_dur_us = std::min(s.min_dur_us, event.dur_us);
  s.max_dur_us = std::max(s.max_dur_us, event.dur_us);
  if (!event.args.empty()) s.last_args = event.args;
}

std::string AggregateSink::to_json() const {
  std::string out = "{\"spans\":[\n";
  std::size_t i = 0;
  for (const auto& [key, s] : spans_) {
    out += "  {\"name\":\"";
    out += json_escape(key.second);
    out += "\",\"cat\":\"";
    out += json_escape(key.first);
    out += "\",\"count\":";
    out += json_number(static_cast<double>(s.count));
    out += ",\"total_us\":";
    out += json_number(static_cast<double>(s.total_dur_us));
    out += ",\"min_us\":";
    out += json_number(static_cast<double>(s.count != 0 ? s.min_dur_us : 0));
    out += ",\"max_us\":";
    out += json_number(static_cast<double>(s.max_dur_us));
    out += ",\"args\":";
    append_args_object(out, s.last_args);
    out += '}';
    if (++i < spans_.size()) out += ',';
    out += '\n';
  }
  out += "],\"counters\":[\n";
  i = 0;
  for (const auto& [name, c] : counters_) {
    out += "  {\"name\":\"";
    out += json_escape(name);
    out += "\",\"count\":";
    out += json_number(static_cast<double>(c.count));
    out += ",\"last\":";
    out += json_number(c.last);
    out += ",\"sum\":";
    out += json_number(c.sum);
    out += '}';
    if (++i < counters_.size()) out += ',';
    out += '\n';
  }
  out += "]}\n";
  return out;
}

bool AggregateSink::write_file(const std::string& path) const {
  return write_text_file(path, to_json());
}

}  // namespace mpcsd::obs
