// The multi-process execution backend: machine bodies run in forked worker
// processes, so a machine body's writes are physically confined to its own
// address space: forked bodies write copy-on-write pages, and nothing they
// do reaches the host's or a sibling machine's memory.  On the thread
// backend the same guarantee is enforced before any run, by mpcsd_verify's
// purity and `conf-const-cast` rules (docs/TOOLING.md).
//
// Per round:
//   * the host forks one worker per pool slot (capped at the machine
//     count); worker w owns the contiguous machine partition
//     [w*M/W, (w+1)*M/W) and runs its bodies serially (forked children
//     do not inherit pool threads);
//   * each worker serializes its machines' outboxes/reports/stashes as the
//     shared machine-result records (mpc/transport.hpp) into a long-lived
//     per-worker shared-memory arena (memfd, one per slot, created on
//     first use and remapped to the round's size), then sends a framed
//     `BarrierRecord` — status, arena byte count, body wall seconds —
//     over a pipe;
//   * the host maps each arena read-only, decodes the records back into
//     the cluster's arenas in machine order (decode_partition_results),
//     and (with a recorder attached) emits one span per worker process on
//     its own track id, merged into the one trace;
//   * a worker whose barrier and arena were read cleanly is reaped at the
//     start of the next `execute` (or in the destructor), so its exit and
//     copy-on-write teardown stay off this round's critical path; every
//     failure path reaps synchronously (the wait status names the signal
//     of a worker that died before its barrier).
//
// A body exception inside a worker serializes its message into the arena
// (status byte distinguishes it) and is rethrown host-side; a crashed
// worker is detected as pipe EOF + nonzero wait status.  Determinism:
// machine i's RNG stream, inputs, and outputs are identical to the thread
// backend's — partitioning only changes *where* a body runs, never what it
// computes — pinned by the backend axis of test_determinism.cpp.
//
// Linux-only (memfd + fork); `make_backend` refuses the kind elsewhere.
#pragma once

#include <sys/types.h>

#include <memory>
#include <vector>

#include "common/thread_pool.hpp"
#include "mpc/backend.hpp"

namespace mpcsd::mpc {

class ProcessBackend final : public ExecutionBackend {
 public:
  ProcessBackend(std::shared_ptr<ThreadPool> pool, obs::Recorder* recorder);
  ~ProcessBackend() override;

  ProcessBackend(const ProcessBackend&) = delete;
  ProcessBackend& operator=(const ProcessBackend&) = delete;

  void execute(const RoundWork& work) override;

  [[nodiscard]] const char* name() const noexcept override { return "process"; }

  /// Shared-memory wire: a frame is one published result arena; the
  /// barrier frames travel over the per-worker pipes.
  [[nodiscard]] const Transport& transport() const noexcept override {
    return transport_;
  }

 private:
  /// Child-side: runs machines [begin, end) serially (run_round_partition),
  /// publishes the result records into the arena fd, sends the framed
  /// round barrier over the pipe.  Never returns control to the cluster —
  /// the caller `_exit`s.
  static void run_worker(const RoundWork& work, std::size_t begin,
                         std::size_t end, int arena_fd, int pipe_fd);

  /// Blocking-reaps every worker in `finished_`.
  void reap_finished();

  std::shared_ptr<ThreadPool> pool_;
  obs::Recorder* recorder_;
  Transport transport_{"shm"};
  /// One memfd per worker slot, created lazily and kept across rounds so
  /// steady-state rounds reuse the same shared-memory object.
  std::vector<int> arena_fds_;
  /// Workers of the last round that delivered cleanly and are not yet
  /// reaped.
  std::vector<pid_t> finished_;
};

}  // namespace mpcsd::mpc
