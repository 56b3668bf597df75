// The multi-process execution backend: machine bodies run in worker
// processes, so a machine body's writes are physically confined to its
// worker's address space and never reach the host's or a sibling worker's
// memory.  On the thread backend the same guarantee rests on bodies being
// capture-free (mpc/body.hpp) and on mpcsd_verify's `conf-const-cast` rule
// (docs/TOOLING.md).
//
// Lifecycle, per cluster:
//   * fork point: the first round's `execute` forks one worker per pool
//     slot the round uses (capped at its machine count), after
//     `ThreadPool::wait_idle()`; a later round with more machines forks the
//     missing slots.  Each worker inherits a copy of the body table
//     (mpc/body.hpp), the pool's input memfd and claim counter page and its
//     slot's result memfd, and closes every other worker channel the host
//     holds.  `transport.forks` counts the forks.
//   * per round: the host writes the M machines' inputs into the pool's
//     grow-only input memfd (an offset table, then the bytes), sets the
//     claim counter to 0 and sends each of the W workers one kRound frame
//     carrying a `RoundCommand`: body id, round, seed, machine range
//     [0, M), claim grain, input byte count and the encoded params.  The
//     worker resolves the body id against its table (an id past the
//     table's size kills the worker; no address from a frame is ever
//     called), maps the inputs read-only, claims chunks of machines from
//     the shared counter until none are left — a worker the scheduler wakes
//     late takes fewer — runs them serially, publishes their
//     machine-result records (mpc/transport.hpp) into its grow-only result
//     memfd and answers with a kBarrier frame carrying a `BarrierRecord`.
//     The host decodes every chunk into the cluster's arenas by machine id
//     (decode_claimed_results), checks that each machine came back exactly
//     once and, with a recorder attached, emits one span per worker on its
//     own track.
//   * a worker's later rounds share its address space, as the machines of
//     one partition already share it within a round; isolation from the
//     host and from sibling workers stays physical.  A body registered
//     after a worker forked makes the next round that uses it refork that
//     worker with the larger table.
//   * shutdown: a worker exits when its socket reaches EOF; the backend
//     destructor closes every socket and reaps every worker.
//   * failure: a body exception (status byte + message in the result
//     arena), a worker that died before its barrier (EOF + wait status,
//     naming the signal), or a corrupt barrier or arena fails the round:
//     the host kills and reaps the whole pool, raises the error, and the
//     next round forks a fresh pool.
//
// Determinism: machine i's RNG stream, inputs, params and outputs are
// identical to the thread backend's — partitioning only changes *where* a
// body runs, never what it computes — pinned by the backend axis of
// test_determinism.cpp.
//
// Linux-only (memfd + fork); `make_backend` refuses the kind elsewhere.
#pragma once

#include <sys/types.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/thread_pool.hpp"
#include "mpc/backend.hpp"

namespace mpcsd::mpc {

/// A mapping of a grow-only memfd: it maps the file's current size and
/// remaps only when a round needs more, so steady rounds reuse resident
/// pages.  The file never shrinks, so a mapping stays valid in every
/// process that holds one.  Forked children do not inherit it.
struct ArenaMap {
  std::byte* data = nullptr;
  std::size_t size = 0;

  /// Maps at least `bytes` of `fd`: read-write, extending the file first
  /// when it is shorter, or read-only.  False on failure (the old mapping
  /// stays).
  bool ensure(int fd, std::size_t bytes, bool writable);
  void release() noexcept;
};

class ProcessBackend final : public ExecutionBackend {
 public:
  ProcessBackend(std::shared_ptr<ThreadPool> pool, obs::Recorder* recorder);
  ~ProcessBackend() override;

  ProcessBackend(const ProcessBackend&) = delete;
  ProcessBackend& operator=(const ProcessBackend&) = delete;

  void execute(const RoundWork& work) override;

  [[nodiscard]] const char* name() const noexcept override { return "process"; }

  /// Sockets and shared memory: a frame is one command, barrier or
  /// published result arena; `forks` counts worker processes started.
  [[nodiscard]] const Transport& transport() const noexcept override {
    return transport_;
  }

 private:
  /// One pool slot: its worker process (if live) and the host's ends of
  /// the worker's channels.  The result memfd outlives reforks of the slot.
  struct Slot {
    pid_t pid = -1;
    int socket = -1;     ///< host end of the command/barrier socket pair
    int result_fd = -1;  ///< result arena (the worker writes)
    ArenaMap results;    ///< host's read-only mapping of the result arena
    std::size_t known_bodies = 0;  ///< body-table size the worker forked with
  };

  /// Forks a worker for every slot in [0, workers) that has none or whose
  /// table lacks `body_id`.
  void ensure_workers(std::size_t workers, std::uint32_t body_id);

  /// Forks slot `w`'s worker with `bodies` as its body table.
  void spawn(std::size_t w, const std::vector<BodyEntry>& bodies);

  /// Closes slot `w`'s socket and reaps its worker (SIGKILL first when
  /// `kill`); returns the wait status.
  int retire(std::size_t w, bool kill);

  /// Retires every live worker; all sockets close (and, with `kill`, all
  /// workers are killed) before the first reap.
  void retire_all(bool kill);

  /// Writes the round's inputs into the input arena; returns its bytes.
  std::size_t write_inputs(const RoundWork& work);

  std::shared_ptr<ThreadPool> pool_;
  obs::Recorder* recorder_;
  Transport transport_{"shm"};
  std::vector<Slot> slots_;
  /// The pool's input arena: the host writes it, every worker maps it
  /// read-only.
  int input_fd_ = -1;
  ArenaMap input_;
  /// The pool's claim counter, in a shared page the workers inherit.
  std::atomic<std::uint64_t>* next_ = nullptr;
};

}  // namespace mpcsd::mpc
