#if defined(__linux__) && !defined(_GNU_SOURCE)
#define _GNU_SOURCE  // memfd_create, pipe2
#endif

#include "mpc/backend_process.hpp"

#if defined(__linux__)

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <string>

#include "common/io.hpp"
#include "mpc/cluster.hpp"
#include "mpc/transport.hpp"
#include "obs/trace.hpp"

namespace mpcsd::mpc {

namespace {

std::string errno_detail(const char* what) {
  return std::string(what) + ": " + std::strerror(errno);
}

/// Blocking waitpid that retries EINTR; returns the wait status.
int reap(pid_t pid) {
  int wait_status = 0;
  while (::waitpid(pid, &wait_status, 0) < 0 && errno == EINTR) {
  }
  return wait_status;
}

}  // namespace

ProcessBackend::ProcessBackend(std::shared_ptr<ThreadPool> pool,
                               obs::Recorder* recorder)
    : pool_(std::move(pool)), recorder_(recorder) {}

ProcessBackend::~ProcessBackend() {
  reap_finished();
  for (int& fd : arena_fds_) io::close_fd(fd);
}

void ProcessBackend::reap_finished() {
  for (const pid_t pid : finished_) reap(pid);
  finished_.clear();
}

void ProcessBackend::run_worker(const RoundWork& work, std::size_t begin,
                                std::size_t end, int arena_fd, int pipe_fd) {
  // The forked child: pool threads did not survive the fork, so the
  // partition runs serially (run_round_partition).  Everything the bodies
  // read (inputs, captured driver state) is a copy-on-write snapshot of the
  // host at fork time; everything they produce leaves only through the
  // arena below.
  ByteWriter out;
  BarrierRecord barrier = run_round_partition(work, begin, end, out);

  // Publish the results through the shared-memory arena: size it to this
  // round, map, copy, unmap.  The fd (and so the shm object) outlives the
  // worker — the host maps the same object to read the bytes back.
  const Bytes& payload = out.bytes();
  if (::ftruncate(arena_fd, static_cast<off_t>(payload.size())) != 0) {
    barrier.status = kWorkerPublishFailed;
  } else if (!payload.empty()) {
    void* map = ::mmap(nullptr, payload.size(), PROT_READ | PROT_WRITE,
                       MAP_SHARED, arena_fd, 0);
    if (map == MAP_FAILED) {
      barrier.status = kWorkerPublishFailed;
    } else {
      std::memcpy(map, payload.data(), payload.size());
      ::munmap(map, payload.size());
    }
  }
  if (barrier.status == kWorkerPublishFailed) barrier.result_bytes = 0;

  ByteWriter record;
  encode_barrier(record, barrier);
  FrameStream stream(pipe_fd);
  (void)stream.send(FrameTag::kBarrier, ByteSpan(record.bytes()));
}

void ProcessBackend::execute(const RoundWork& work) {
  reap_finished();
  const std::size_t machines = work.machines;
  if (machines == 0) return;
  const std::size_t workers =
      std::clamp<std::size_t>(pool_->worker_count(), 1, machines);

  if (arena_fds_.size() < workers) arena_fds_.resize(workers, -1);
  for (std::size_t w = 0; w < workers; ++w) {
    if (arena_fds_[w] < 0) {
      arena_fds_[w] = ::memfd_create("mpcsd-round-arena", MFD_CLOEXEC);
      if (arena_fds_[w] < 0) {
        throw std::runtime_error(
            errno_detail("process backend: memfd_create"));
      }
    }
  }

  struct Worker {
    pid_t pid = -1;
    int pipe_fd = -1;
    std::size_t begin = 0;
    std::size_t end = 0;
  };
  std::vector<Worker> live;
  live.reserve(workers);
  const bool traced = recorder_ != nullptr && recorder_->enabled();
  const std::uint64_t round_start_us = traced ? recorder_->now_us() : 0;

  // Fork only with every pool thread parked: see ThreadPool::wait_idle.
  pool_->wait_idle();
  std::string failure;
  for (std::size_t w = 0; w < workers; ++w) {
    const std::size_t begin = w * machines / workers;
    const std::size_t end = (w + 1) * machines / workers;
    int fds[2] = {-1, -1};
    if (::pipe2(fds, O_CLOEXEC) != 0) {
      failure = errno_detail("process backend: pipe2");
      break;
    }
    const pid_t pid = ::fork();
    if (pid < 0) {
      failure = errno_detail("process backend: fork");
      io::close_fd(fds[0]);
      io::close_fd(fds[1]);
      break;
    }
    if (pid == 0) {
      // Child: run the partition, publish, and _exit — never unwind into
      // the host's destructors (the inherited pool object has no threads).
      io::close_fd(fds[0]);
      run_worker(work, begin, end, arena_fds_[w], fds[1]);
      ::_exit(0);
    }
    // Host: drop the write end now, so a worker that dies before the
    // barrier turns into pipe EOF instead of a hang.
    io::close_fd(fds[1]);
    live.push_back(Worker{pid, fds[0], begin, end});
  }

  // Round barrier: collect every forked worker (even after a failure, so
  // no dangling pipes survive the throw below).  A worker whose barrier and
  // arena read cleanly is reaped later (`finished_`): its address-space
  // teardown then overlaps the host's next steps instead of delaying this
  // barrier.  Every failure reaps on the spot, for the wait status.
  TransportCounters& counters = transport_.counters();
  for (std::size_t w = 0; w < live.size(); ++w) {
    Worker& worker = live[w];
    FrameStream stream(worker.pipe_fd, &counters);
    BarrierRecord barrier;
    bool got_barrier = false;
    std::string frame_error;
    try {
      const auto frame = stream.recv();
      if (frame.has_value() && frame->tag == FrameTag::kBarrier) {
        ByteReader r(frame->payload);
        barrier = decode_barrier(r);
        got_barrier = true;
      }
    } catch (const std::exception& e) {
      frame_error = e.what();
    }
    io::close_fd(worker.pipe_fd);
    if (!failure.empty()) {  // already failing; just reap
      reap(worker.pid);
      continue;
    }
    if (!frame_error.empty()) {
      reap(worker.pid);
      failure = "process backend: corrupt round barrier: " + frame_error;
      continue;
    }
    if (!got_barrier) {
      const int wait_status = reap(worker.pid);
      failure = "process backend: worker for machines [" +
                std::to_string(worker.begin) + ", " +
                std::to_string(worker.end) + ") died before the round barrier" +
                (WIFSIGNALED(wait_status)
                     ? " (signal " + std::to_string(WTERMSIG(wait_status)) + ")"
                     : "");
      continue;
    }
    ++counters.barrier_waits;
    if (barrier.status == kWorkerPublishFailed) {
      reap(worker.pid);
      failure = "process backend: worker could not publish its result arena";
      continue;
    }

    // Map the worker's arena and parse the shared machine-result records
    // back into the cluster's round arenas, in machine order.
    const std::uint64_t arena_bytes = barrier.result_bytes;
    void* map = nullptr;
    if (arena_bytes > 0) {
      map = ::mmap(nullptr, arena_bytes, PROT_READ, MAP_SHARED, arena_fds_[w],
                   0);
      if (map == MAP_FAILED) {
        failure = errno_detail("process backend: mmap result arena");
        reap(worker.pid);
        continue;
      }
    }
    try {
      ByteReader r(static_cast<const std::byte*>(map), arena_bytes);
      if (barrier.status == kWorkerBodyThrew) {
        failure = "machine body failed in worker process: " + r.get_string();
      } else {
        decode_partition_results(r, work, worker.begin, worker.end);
        ++counters.frames_received;  // one published arena of records
        counters.bytes_received += arena_bytes;
        ++counters.flushes;
      }
    } catch (const std::exception& e) {
      failure = std::string("process backend: corrupt result arena: ") +
                e.what();
    }
    if (map != nullptr) ::munmap(map, arena_bytes);
    if (failure.empty()) {
      finished_.push_back(worker.pid);
    } else {
      reap(worker.pid);
    }
    if (traced) {
      obs::TraceEvent ev;
      ev.kind = obs::EventKind::kSpan;
      ev.name = "backend:worker:" + std::to_string(w);
      ev.category = "backend";
      ev.track = w + 1;  // per-worker-process tracks, merged into one trace
      ev.ts_us = round_start_us;
      ev.dur_us = static_cast<std::uint64_t>(barrier.body_seconds * 1e6);
      ev.args = {{"machines", static_cast<double>(worker.end - worker.begin)},
                 {"pid", static_cast<double>(worker.pid)}};
      recorder_->emit(std::move(ev));
    }
  }

  if (!failure.empty()) throw std::runtime_error(failure);
}

}  // namespace mpcsd::mpc

#endif  // defined(__linux__)
