#include "common/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>

namespace mpcsd {

namespace {

/// Shared state of one parallel_for call.  Queued worker tasks hold a
/// shared_ptr to it, so stragglers that run after the call has returned
/// (because the caller drained all indices itself) see next >= count and
/// exit immediately instead of touching dead stack frames.
struct ForState {
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> done{0};
  std::atomic<bool> cancelled{false};
  std::size_t count = 0;
  std::size_t grain = 1;
  const std::function<void(std::size_t)>* body = nullptr;  // valid while done < count
  std::mutex error_mu;
  std::exception_ptr first_error;
  std::mutex done_mu;
  std::condition_variable done_cv;
};

void drain(const std::shared_ptr<ForState>& state) {
  for (;;) {
    const std::size_t begin = state->next.fetch_add(state->grain, std::memory_order_relaxed);
    if (begin >= state->count) return;
    const std::size_t end = std::min(state->count, begin + state->grain);
    // A thrown body cancels the call: later chunks are still claimed and
    // counted (so the caller's completion wait stays exact) but their
    // bodies no longer run — the first exception reaches the caller without
    // paying for the rest of the iteration space.
    if (!state->cancelled.load(std::memory_order_acquire)) {
      for (std::size_t i = begin; i < end; ++i) {
        try {
          (*state->body)(i);
        } catch (...) {
          std::lock_guard<std::mutex> lock(state->error_mu);
          if (!state->first_error) state->first_error = std::current_exception();
          state->cancelled.store(true, std::memory_order_release);
          break;
        }
      }
    }
    const std::size_t chunk = end - begin;
    if (state->done.fetch_add(chunk, std::memory_order_acq_rel) + chunk == state->count) {
      std::lock_guard<std::mutex> lock(state->done_mu);
      state->done_cv.notify_all();
    }
  }
}

}  // namespace

ThreadPool::ThreadPool(std::size_t workers) {
  if (workers == 0) {
    workers = std::thread::hardware_concurrency();
    if (workers == 0) workers = 1;
  }
  worker_total_ = workers;
  threads_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    threads_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& t : threads_) t.join();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      // Counted idle from here until a task (or shutdown) wakes it: `idle_`
      // changes only under `mu_`, and cv_.wait parks with `mu_` released.
      if (++idle_ == worker_total_) idle_cv_.notify_all();
      cv_.wait(lock, [this] { return stopping_ || !tasks_.empty(); });
      --idle_;
      if (stopping_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    // A task must never unwind into the thread entry point — that calls
    // std::terminate and takes the whole process down.  parallel_for's
    // drain captures body exceptions itself; this guard covers the
    // remaining theoretical throws (e.g. mutex failure) so a worker thread
    // survives any task.
    try {
      task();
    } catch (...) {
    }
  }
}

void ThreadPool::wait_idle() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [this] { return idle_ == worker_total_; });
}

void ThreadPool::parallel_for(std::size_t count,
                              const std::function<void(std::size_t)>& body,
                              std::size_t grain) {
  if (count == 0) return;
  const std::size_t g = std::max<std::size_t>(grain, 1);
  indices_claimed_.fetch_add(count, std::memory_order_relaxed);
  if (count <= g || threads_.size() <= 1) {
    // One chunk (or one worker): run inline on the caller — same
    // cancel-on-first-error semantics as the pooled path, no queue wakeup
    // for single-machine rounds.
    inline_calls_.fetch_add(1, std::memory_order_relaxed);
    for (std::size_t i = 0; i < count; ++i) body(i);
    return;
  }
  parallel_for_calls_.fetch_add(1, std::memory_order_relaxed);
  auto state = std::make_shared<ForState>();
  state->count = count;
  state->grain = g;
  state->body = &body;

  // One queued task per worker; each drains indices from the shared
  // counter, so queue pressure stays constant even for 10^5 machines.
  const std::size_t fanout = std::min((count + state->grain - 1) / state->grain,
                                      threads_.size());
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (std::size_t i = 0; i < fanout; ++i) {
      tasks_.push([state] { drain(state); });
    }
    tasks_enqueued_.fetch_add(fanout, std::memory_order_relaxed);
    const auto depth = static_cast<std::uint64_t>(tasks_.size());
    if (depth > peak_queue_depth_.load(std::memory_order_relaxed)) {
      peak_queue_depth_.store(depth, std::memory_order_relaxed);
    }
  }
  cv_.notify_all();

  // The calling thread participates too: guarantees forward progress even
  // with zero free workers and makes single-threaded pools exact.
  drain(state);

  {
    std::unique_lock<std::mutex> lock(state->done_mu);
    state->done_cv.wait(lock, [&] {
      return state->done.load(std::memory_order_acquire) == count;
    });
  }
  // `body` dangles after return; stragglers must never dereference it.
  // They cannot: next >= count for every remaining queued task.
  state->body = nullptr;
  if (state->first_error) std::rethrow_exception(state->first_error);
}

}  // namespace mpcsd
