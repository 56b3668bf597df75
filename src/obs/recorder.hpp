// The thread-safe recorder at the centre of the observability spine.
//
// A `Recorder` owns an ordered list of pluggable sinks (see obs/sinks.hpp)
// and a monotonic epoch.  Emission sites throughout the simulator hold a
// `Recorder*` that is almost always null or sink-less — both states are the
// *disabled* recorder, and the hot path for them is a single inlined
// pointer-plus-relaxed-atomic check with no allocation, no lock, and no
// string construction (the perf suite's ratio gates run with a sink-less
// recorder wired through every layer to keep that true).  Only when a sink
// is attached do spans materialise names and args and take the dispatch
// lock.
//
// Thread safety: `emit` may be called concurrently from every pool worker
// (machine bodies run under `ThreadPool::parallel_for`); dispatch is
// serialised by an internal mutex, so sinks never need their own locking.
#pragma once

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/trace.hpp"

namespace mpcsd::obs {

/// A pluggable event consumer.  `record` is always called under the
/// recorder's dispatch lock (single-threaded from the sink's view);
/// `flush` is called by `Recorder::flush` and on recorder destruction.
class Sink {
 public:
  virtual ~Sink() = default;
  virtual void record(const TraceEvent& event) = 0;
  virtual void flush() {}
};

class Recorder {
 public:
  Recorder() : epoch_(std::chrono::steady_clock::now()) {}
  ~Recorder() { flush(); }

  Recorder(const Recorder&) = delete;
  Recorder& operator=(const Recorder&) = delete;

  void add_sink(std::shared_ptr<Sink> sink);

  /// True iff at least one sink is attached.  This is THE hot-path check:
  /// every emission site reads it (inlined, relaxed) before building any
  /// event, so a sink-less recorder costs the same as a null one.
  [[nodiscard]] bool enabled() const noexcept {
    return armed_.load(std::memory_order_relaxed);
  }

  /// Microseconds since the recorder was created (monotonic clock).
  [[nodiscard]] std::uint64_t now_us() const noexcept {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - epoch_)
            .count());
  }

  /// Dispatches `event` to every sink (no-op when disabled).
  void emit(TraceEvent event);

  /// Span covering [ts_us, now] on `track`: how a layer attributes a shared
  /// interval (one span per query or rung of a shared pass, each with its
  /// own args).
  void span_since(std::string_view name, std::string_view category,
                  std::uint64_t ts_us, std::vector<Arg> args, std::uint64_t track);

  /// Series sample: `name` takes `value` now.
  void counter(std::string_view name, std::string_view category, double value,
               std::uint64_t track = 0);

  /// Point event with optional args.
  void instant(std::string_view name, std::string_view category,
               std::vector<Arg> args = {}, std::uint64_t track = 0);

  void flush();

  /// Events dispatched so far (to attached sinks).
  [[nodiscard]] std::uint64_t event_count() const noexcept {
    return events_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<bool> armed_{false};
  std::atomic<std::uint64_t> events_{0};
  std::mutex mu_;
  std::vector<std::shared_ptr<Sink>> sinks_;
  std::chrono::steady_clock::time_point epoch_;
};

/// RAII span: starts timing at construction, emits one kSpan event at
/// `finish()` (or destruction).  Constructed against a null or disabled
/// recorder it is fully inert — no name copy, no clock read.
class Span {
 public:
  Span() = default;

  Span(Recorder* recorder, std::string_view name, std::string_view category,
       std::uint64_t track = 0) {
    if (recorder != nullptr && recorder->enabled()) {
      recorder_ = recorder;
      event_.kind = EventKind::kSpan;
      event_.name.assign(name);
      event_.category.assign(category);
      event_.track = track;
      event_.ts_us = recorder->now_us();
    }
  }

  Span(Span&& other) noexcept
      : recorder_(std::exchange(other.recorder_, nullptr)),
        event_(std::move(other.event_)) {}
  Span& operator=(Span&& other) noexcept {
    if (this != &other) {
      finish();
      recorder_ = std::exchange(other.recorder_, nullptr);
      event_ = std::move(other.event_);
    }
    return *this;
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  ~Span() { finish(); }

  /// True when the span is live (recorder attached and not yet finished).
  [[nodiscard]] explicit operator bool() const noexcept {
    return recorder_ != nullptr;
  }

  /// Attaches a numeric argument (no-op on an inert span); chainable.
  Span& arg(std::string_view key, double value) {
    if (recorder_ != nullptr) {
      event_.args.push_back(Arg{std::string(key), value});
    }
    return *this;
  }

  /// Stamps the duration and emits; idempotent.
  void finish() {
    if (recorder_ == nullptr) return;
    event_.dur_us = recorder_->now_us() - event_.ts_us;
    recorder_->emit(std::move(event_));
    recorder_ = nullptr;
  }

 private:
  Recorder* recorder_ = nullptr;
  TraceEvent event_;
};

}  // namespace mpcsd::obs
