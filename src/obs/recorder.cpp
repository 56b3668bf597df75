#include "obs/recorder.hpp"

namespace mpcsd::obs {

void Recorder::add_sink(std::shared_ptr<Sink> sink) {
  if (sink == nullptr) return;
  std::lock_guard<std::mutex> lock(mu_);
  sinks_.push_back(std::move(sink));
  armed_.store(true, std::memory_order_release);
}

void Recorder::emit(TraceEvent event) {
  if (!enabled()) return;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& sink : sinks_) sink->record(event);
  events_.fetch_add(1, std::memory_order_relaxed);
}

void Recorder::counter(std::string_view name, std::string_view category,
                       double value, std::uint64_t track) {
  if (!enabled()) return;
  TraceEvent event;
  event.kind = EventKind::kCounter;
  event.name.assign(name);
  event.category.assign(category);
  event.ts_us = now_us();
  event.track = track;
  event.args.push_back(Arg{"value", value});
  emit(std::move(event));
}

void Recorder::instant(std::string_view name, std::string_view category,
                       std::vector<Arg> args, std::uint64_t track) {
  if (!enabled()) return;
  TraceEvent event;
  event.kind = EventKind::kInstant;
  event.name.assign(name);
  event.category.assign(category);
  event.ts_us = now_us();
  event.track = track;
  event.args = std::move(args);
  emit(std::move(event));
}

void Recorder::span_since(std::string_view name, std::string_view category,
                          std::uint64_t ts_us, std::vector<Arg> args,
                          std::uint64_t track) {
  if (!enabled()) return;
  TraceEvent event;
  event.kind = EventKind::kSpan;
  event.name.assign(name);
  event.category.assign(category);
  event.ts_us = ts_us;
  event.dur_us = now_us() - ts_us;
  event.track = track;
  event.args = std::move(args);
  emit(std::move(event));
}

void Recorder::flush() {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& sink : sinks_) sink->flush();
}

}  // namespace mpcsd::obs
