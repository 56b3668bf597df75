// A small fixed-size thread pool with a blocking `parallel_for`.
//
// The MPC simulator executes all machines of a round concurrently through
// this pool; within a round machines share nothing (the MPC model forbids
// intra-round communication), so `parallel_for` over machine indices is the
// natural execution primitive.  The pool size defaults to the hardware
// concurrency but is configurable so the simulator stays deterministic and
// usable on single-core hosts.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace mpcsd {

/// Cumulative utilisation counters of one pool, sampled by the
/// observability spine (the cluster emits them as `pool.*` counter events
/// after every round).  All fields are monotone over the pool's lifetime.
struct PoolCounters {
  std::uint64_t parallel_for_calls = 0;  ///< calls that fanned out to workers
  std::uint64_t inline_calls = 0;        ///< serial fast-path calls
  std::uint64_t tasks_enqueued = 0;      ///< worker wakeup tasks queued
  std::uint64_t indices_claimed = 0;     ///< iteration indices dispatched
  std::uint64_t peak_queue_depth = 0;    ///< max task-queue length observed
};

class ThreadPool {
 public:
  /// `workers == 0` selects std::thread::hardware_concurrency() (min 1).
  explicit ThreadPool(std::size_t workers = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t worker_count() const noexcept { return threads_.size(); }

  /// Snapshot of the cumulative queue-depth/utilisation counters.  Cheap
  /// (five relaxed loads); safe to call concurrently with parallel_for.
  [[nodiscard]] PoolCounters counters() const noexcept {
    PoolCounters c;
    c.parallel_for_calls = parallel_for_calls_.load(std::memory_order_relaxed);
    c.inline_calls = inline_calls_.load(std::memory_order_relaxed);
    c.tasks_enqueued = tasks_enqueued_.load(std::memory_order_relaxed);
    c.indices_claimed = indices_claimed_.load(std::memory_order_relaxed);
    c.peak_queue_depth = peak_queue_depth_.load(std::memory_order_relaxed);
    return c;
  }

  /// Runs body(i) for every i in [0, count), blocking until all complete.
  ///
  /// Exceptions thrown by `body` propagate to the caller: the first one is
  /// captured, the remaining iteration space is cancelled (chunks already
  /// running finish their current index; unclaimed indices never execute),
  /// and the exception is rethrown once every worker has quiesced.  A
  /// throwing body can never terminate the process or wedge the pool — the
  /// pool stays fully usable for subsequent calls.
  ///
  /// `grain` is the number of consecutive indices a worker claims per
  /// atomic fetch: grain 1 (the default) load-balances perfectly but pays
  /// one contended RMW per index, which dominates when bodies are tiny
  /// (e.g. thousands of near-empty simulated machines).  Larger grains
  /// amortise the RMW at the cost of coarser balancing.
  void parallel_for(std::size_t count, const std::function<void(std::size_t)>& body,
                    std::size_t grain = 1);

  /// Blocks until every worker has started and is parked waiting for work
  /// with the queue empty.  For callers about to fork(): a worker still
  /// starting up, or still releasing a finished task's state after
  /// `parallel_for` returned, may hold an allocator lock that the child
  /// would inherit locked.  glibc guards its malloc across fork; under
  /// GCC 12's AddressSanitizer, forked children hung this way.
  void wait_idle();

 private:
  void worker_loop();

  std::vector<std::thread> threads_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::queue<std::function<void()>> tasks_;
  bool stopping_ = false;
  std::size_t worker_total_ = 0;  ///< threads the constructor starts
  std::size_t idle_ = 0;          ///< workers parked in worker_loop's wait
  std::condition_variable idle_cv_;

  // Observability counters (see PoolCounters).  Relaxed atomics updated at
  // call granularity — never per index — so metering stays off the inner
  // loop.
  std::atomic<std::uint64_t> parallel_for_calls_{0};
  std::atomic<std::uint64_t> inline_calls_{0};
  std::atomic<std::uint64_t> tasks_enqueued_{0};
  std::atomic<std::uint64_t> indices_claimed_{0};
  std::atomic<std::uint64_t> peak_queue_depth_{0};
};

}  // namespace mpcsd
