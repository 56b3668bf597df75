#if defined(__linux__) && !defined(_GNU_SOURCE)
#define _GNU_SOURCE  // memfd_create
#endif

#include "mpc/backend_process.hpp"

#if defined(__linux__)

#include <signal.h>
#include <sys/mman.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>

#include "common/io.hpp"
#include "mpc/cluster.hpp"
#include "mpc/transport.hpp"
#include "obs/trace.hpp"

namespace mpcsd::mpc {

namespace {

/// Worker exit statuses for a command it cannot run; the host reports them
/// as a worker that died before the round barrier.
constexpr int kExitBadCommand = 3;
constexpr int kExitUnknownBody = 4;

/// Smallest arena: one page-rounded mapping serves small rounds.
constexpr std::size_t kArenaMin = std::size_t{1} << 16;

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

/// Every worker-channel fd the host holds, across all process backends in
/// this process.  A worker forked by one backend would otherwise inherit
/// the host ends of every other worker's socket, and a socket whose host
/// end lives on in a sibling never reaches EOF.  The lock is held from
/// socketpair through fork, so a child sees every host end registered and
/// no other worker's child end open; the child closes all of them but its
/// own.
struct ChannelFds {
  std::mutex mu;
  std::vector<int> fds;
};

ChannelFds& channel_fds() {
  static ChannelFds channels;
  return channels;
}

/// Closes `fd` and drops it from the registry.
void close_channel_fd(int& fd) {
  if (fd < 0) return;
  ChannelFds& channels = channel_fds();
  const std::lock_guard<std::mutex> lock(channels.mu);
  channels.fds.erase(std::remove(channels.fds.begin(), channels.fds.end(), fd),
                     channels.fds.end());
  io::close_fd(fd);
}

/// A new memfd, registered as a channel fd (the caller holds the lock).
int create_arena(ChannelFds& channels) {
  const int fd = ::memfd_create("mpcsd-worker-arena", MFD_CLOEXEC);
  if (fd < 0) {
    throw std::runtime_error(errno_detail("process backend: memfd_create"));
  }
  channels.fds.push_back(fd);
  return fd;
}

/// The size of the memfd behind `fd`, or 0 if it cannot be read.
std::size_t file_size(int fd) {
  struct stat st {};
  return ::fstat(fd, &st) == 0 ? static_cast<std::size_t>(st.st_size) : 0;
}

}  // namespace

bool ArenaMap::ensure(int fd, std::size_t bytes, bool writable) {
  if (bytes <= size) return true;  // also: nothing to map yet
  std::size_t target = file_size(fd);
  if (writable && target < bytes) {
    target = std::max({bytes, 2 * size, kArenaMin});
    if (::ftruncate(fd, static_cast<off_t>(target)) != 0) return false;
  }
  if (target < bytes) return false;
  const int prot = writable ? PROT_READ | PROT_WRITE : PROT_READ;
  void* map = ::mmap(nullptr, target, prot, MAP_SHARED, fd, 0);
  if (map == MAP_FAILED) return false;
  // Not inherited: a worker forked later must not see its siblings' arenas.
  ::madvise(map, target, MADV_DONTFORK);
  release();
  data = static_cast<std::byte*>(map);
  size = target;
  return true;
}

void ArenaMap::release() noexcept {
  if (data != nullptr) ::munmap(data, size);
  data = nullptr;
  size = 0;
}

namespace {

/// Child-side: one chain per machine of `command` over the input arena's
/// offset table.  False when the layout does not add up.
bool split_inputs(const std::byte* data, const RoundCommand& command,
                  std::vector<ByteChain>& inputs) {
  const std::uint64_t machines = command.end;
  const std::uint64_t table = (machines + 1) * sizeof(std::uint64_t);
  if (command.input_bytes < table) return false;
  inputs.assign(machines, ByteChain{});
  std::uint64_t begin = 0;
  std::memcpy(&begin, data, sizeof begin);
  for (std::uint64_t i = 0; i < machines; ++i) {
    std::uint64_t end = 0;
    std::memcpy(&end, data + (i + 1) * sizeof end, sizeof end);
    if (begin < table || end < begin || end > command.input_bytes) return false;
    inputs[i].add(ByteSpan(data + begin, end - begin));
    begin = end;
  }
  return true;
}

/// The worker process: runs round commands until its socket reaches EOF.
/// `bodies` is the body table as it was at the fork; `next` is the pool's
/// shared claim counter.  Never returns.
[[noreturn]] void worker_main(int socket, int input_fd, int result_fd,
                              std::atomic<std::uint64_t>& next,
                              const std::vector<BodyEntry>& bodies) {
  FrameStream stream(socket);
  std::vector<ByteChain> inputs;
  ArenaMap input;
  ArenaMap results;
  for (;;) {
    RoundCommand command;
    try {
      const auto frame = stream.recv();
      if (!frame.has_value()) ::_exit(0);  // EOF: the host is done with us
      if (frame->tag != FrameTag::kRound) ::_exit(kExitBadCommand);
      ByteReader r(frame->payload);
      command = decode_round_command(r);
    } catch (const std::exception&) {
      ::_exit(kExitBadCommand);
    }
    if (command.body_id >= bodies.size()) ::_exit(kExitUnknownBody);

    // The input arena is mapped read-only: a body cannot change any
    // machine's inbox, its own included.
    if (!input.ensure(input_fd, command.input_bytes, /*writable=*/false) ||
        !split_inputs(input.data, command, inputs)) {
      ::_exit(kExitBadCommand);
    }
    ByteWriter out;
    BarrierRecord barrier = run_claimed_machines(bodies[command.body_id],
                                                 command, next, inputs, out);

    // Publish: the result arena grows to the largest round and stays mapped.
    const Bytes& payload = out.bytes();
    if (results.ensure(result_fd, payload.size(), /*writable=*/true)) {
      // A worker that has claimed no machine yet has no arena mapped.
      if (!payload.empty()) std::memcpy(results.data, payload.data(), payload.size());
    } else {
      barrier.status = kWorkerPublishFailed;
      barrier.result_bytes = 0;
    }
    out = ByteWriter{};  // keep no round's results past the round
    ByteWriter record;
    encode_barrier(record, barrier);
    if (!stream.send(FrameTag::kBarrier, ByteSpan(record.bytes()))) {
      ::_exit(0);  // the host is gone
    }
  }
}

}  // namespace

ProcessBackend::ProcessBackend(std::shared_ptr<ThreadPool> pool,
                               obs::Recorder* recorder)
    : pool_(std::move(pool)), recorder_(recorder) {}

ProcessBackend::~ProcessBackend() {
  retire_all(/*kill=*/false);
  for (Slot& slot : slots_) {
    slot.results.release();
    close_channel_fd(slot.result_fd);
  }
  input_.release();
  close_channel_fd(input_fd_);
  if (next_ != nullptr) ::munmap(next_, sizeof *next_);
}

void ProcessBackend::spawn(std::size_t w, const std::vector<BodyEntry>& bodies) {
  Slot& slot = slots_[w];
  ChannelFds& channels = channel_fds();
  const std::lock_guard<std::mutex> lock(channels.mu);
  if (next_ == nullptr) {
    // The claim counter: one shared page every worker of the pool inherits.
    void* page = ::mmap(nullptr, sizeof *next_, PROT_READ | PROT_WRITE,
                        MAP_SHARED | MAP_ANONYMOUS, -1, 0);
    if (page == MAP_FAILED) {
      throw std::runtime_error(errno_detail("process backend: claim page"));
    }
    next_ = std::construct_at(static_cast<std::atomic<std::uint64_t>*>(page),
                              std::uint64_t{0});
  }
  if (input_fd_ < 0) input_fd_ = create_arena(channels);
  if (slot.result_fd < 0) slot.result_fd = create_arena(channels);
  int ends[2] = {-1, -1};
  if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, ends) != 0) {
    throw std::runtime_error(errno_detail("process backend: socketpair"));
  }
  const pid_t pid = ::fork();
  if (pid < 0) {
    const std::string detail = errno_detail("process backend: fork");
    io::close_fd(ends[0]);
    io::close_fd(ends[1]);
    throw std::runtime_error(detail);
  }
  if (pid == 0) {
    // Child: keep this slot's channels only, then serve rounds until EOF —
    // never unwind into the host's destructors (the inherited pool object
    // has no threads).
    for (const int fd : channels.fds) {
      if (fd != input_fd_ && fd != slot.result_fd) ::close(fd);
    }
    ::close(ends[0]);
    worker_main(ends[1], input_fd_, slot.result_fd, *next_, bodies);
  }
  io::close_fd(ends[1]);
  slot.pid = pid;
  slot.socket = ends[0];
  slot.known_bodies = bodies.size();
  channels.fds.push_back(slot.socket);
  ++transport_.counters().forks;
}

void ProcessBackend::retire_all(bool kill) {
  // Every socket first, so the workers exit and tear down side by side.
  for (Slot& slot : slots_) close_channel_fd(slot.socket);
  for (std::size_t w = 0; w < slots_.size(); ++w) {
    if (kill && slots_[w].pid >= 0) ::kill(slots_[w].pid, SIGKILL);
  }
  for (std::size_t w = 0; w < slots_.size(); ++w) {
    if (slots_[w].pid >= 0) retire(w, /*kill=*/false);
  }
}

int ProcessBackend::retire(std::size_t w, bool kill) {
  Slot& slot = slots_[w];
  close_channel_fd(slot.socket);  // EOF: an idle worker exits on its own
  if (kill) ::kill(slot.pid, SIGKILL);
  const int wait_status = reap(slot.pid);
  slot.pid = -1;
  slot.known_bodies = 0;
  return wait_status;
}

void ProcessBackend::ensure_workers(std::size_t workers, std::uint32_t body_id) {
  if (slots_.size() < workers) slots_.resize(workers);
  const auto ready = [&](const Slot& slot) {
    return slot.pid >= 0 && body_id < slot.known_bodies;
  };
  if (std::all_of(slots_.begin(),
                  slots_.begin() + static_cast<std::ptrdiff_t>(workers), ready)) {
    return;
  }
  // Fork only with every pool thread parked: see ThreadPool::wait_idle.
  pool_->wait_idle();
  const std::vector<BodyEntry> bodies = body_table_snapshot();
  for (std::size_t w = 0; w < workers; ++w) {
    if (ready(slots_[w])) continue;
    if (slots_[w].pid >= 0) retire(w, /*kill=*/false);
    spawn(w, bodies);
  }
}

std::size_t ProcessBackend::write_inputs(const RoundWork& work) {
  // Layout: machines + 1 u64 offsets (machine i's bytes are
  // [offset[i], offset[i+1]) from the arena's start), then the bytes.
  const std::size_t machines = work.machines;
  const std::size_t table = (machines + 1) * sizeof(std::uint64_t);
  std::size_t need = table;
  for (std::size_t i = 0; i < machines; ++i) {
    need += (*work.inputs)[i].total_bytes();
  }
  if (!input_.ensure(input_fd_, need, /*writable=*/true)) {
    throw std::runtime_error(errno_detail("process backend: grow input arena"));
  }
  std::uint64_t offset = table;
  std::memcpy(input_.data, &offset, sizeof offset);
  for (std::size_t i = 0; i < machines; ++i) {
    for (const ByteSpan part : (*work.inputs)[i].parts()) {
      std::memcpy(input_.data + offset, part.data(), part.size());
      offset += part.size();
    }
    std::memcpy(input_.data + (i + 1) * sizeof offset, &offset, sizeof offset);
  }
  return need;
}

void ProcessBackend::execute(const RoundWork& work) {
  const std::size_t machines = work.machines;
  if (machines == 0) return;
  const std::size_t workers =
      std::clamp<std::size_t>(pool_->worker_count(), 1, machines);
  ensure_workers(workers, work.body.id);

  TransportCounters& counters = transport_.counters();
  const bool traced = recorder_ != nullptr && recorder_->enabled();
  const std::uint64_t round_start_us = traced ? recorder_->now_us() : 0;

  // Commands: the round's inputs into the shared arena, the claim counter
  // to the first machine, then one kRound frame per worker.  Workers claim
  // chunks as they wake, so a late worker takes fewer machines.
  std::string failure;
  std::vector<char> sent(workers, 0);
  RoundCommand command;
  command.body_id = work.body.id;
  command.round = work.round;
  command.seed = work.seed;
  command.begin = 0;
  command.end = machines;
  command.grain = work.grain;
  command.params.assign(work.params.begin(), work.params.end());
  try {
    command.input_bytes = write_inputs(work);
  } catch (const std::exception& e) {
    failure = e.what();
  }
  next_->store(command.begin);
  if (failure.empty()) {
    ByteWriter payload;
    encode_round_command(payload, command);
    for (std::size_t w = 0; w < workers; ++w) {
      FrameStream stream(slots_[w].socket, &counters);
      sent[w] = stream.send(FrameTag::kRound, ByteSpan(payload.bytes())) ? 1 : 0;
    }
    counters.bytes_sent += command.input_bytes;
  }

  // Round barrier, in slot order; the first failure stops the collection
  // and the pool is torn down below.
  std::vector<char> filled(machines, 0);
  std::size_t decoded = 0;
  for (std::size_t w = 0; w < workers && failure.empty(); ++w) {
    Slot& slot = slots_[w];
    BarrierRecord barrier;
    bool got_barrier = false;
    if (sent[w] != 0) {
      FrameStream stream(slot.socket, &counters);
      try {
        const auto frame = stream.recv();
        if (frame.has_value() && frame->tag == FrameTag::kBarrier) {
          ByteReader r(frame->payload);
          barrier = decode_barrier(r);
          got_barrier = true;
        }
      } catch (const std::exception& e) {
        failure = std::string("process backend: corrupt round barrier: ") +
                  e.what();
        continue;
      }
    }
    if (!got_barrier) {
      const int wait_status = retire(w, /*kill=*/false);
      std::string cause;
      if (WIFSIGNALED(wait_status)) {
        cause = " (signal " + std::to_string(WTERMSIG(wait_status)) + ")";
      } else if (WIFEXITED(wait_status) && WEXITSTATUS(wait_status) != 0) {
        cause = " (exit status " + std::to_string(WEXITSTATUS(wait_status)) + ")";
      }
      failure = "process backend: worker " + std::to_string(w) +
                " died before the round barrier" + cause;
      continue;
    }
    ++counters.barrier_waits;
    if (barrier.status == kWorkerPublishFailed) {
      failure = "process backend: worker could not publish its result arena";
      continue;
    }

    // Parse the worker's chunks of machine-result records out of its
    // arena, back into the cluster's round arenas.
    const std::uint64_t arena_bytes = barrier.result_bytes;
    std::size_t claimed = 0;
    try {
      if (!slot.results.ensure(slot.result_fd, arena_bytes, /*writable=*/false)) {
        throw std::runtime_error(errno_detail("cannot map"));
      }
      ByteReader r(slot.results.data, arena_bytes);
      if (barrier.status == kWorkerBodyThrew) {
        failure = "machine body failed in worker process: " + r.get_string();
      } else {
        claimed = decode_claimed_results(r, work, filled);
        decoded += claimed;
        ++counters.frames_received;  // one published arena of records
        counters.bytes_received += arena_bytes;
        ++counters.flushes;
      }
    } catch (const std::exception& e) {
      failure = std::string("process backend: corrupt result arena: ") +
                e.what();
    }
    if (traced) {
      obs::TraceEvent ev;
      ev.kind = obs::EventKind::kSpan;
      ev.name = "backend:worker:" + std::to_string(w);
      ev.category = "backend";
      ev.track = w + 1;  // per-worker-process tracks, merged into one trace
      ev.ts_us = round_start_us;
      ev.dur_us = static_cast<std::uint64_t>(barrier.body_seconds * 1e6);
      ev.args = {{"machines", static_cast<double>(claimed)},
                 {"pid", static_cast<double>(slot.pid)}};
      recorder_->emit(std::move(ev));
    }
  }
  if (failure.empty() && decoded != machines) {
    failure = "process backend: corrupt result arena: " +
              std::to_string(decoded) + " of " + std::to_string(machines) +
              " machines came back";
  }

  if (!failure.empty()) {
    // A failed round leaves workers mid-protocol: reap the whole pool, so
    // the next round starts from freshly forked workers.
    retire_all(/*kill=*/true);
    throw std::runtime_error(failure);
  }
}

}  // namespace mpcsd::mpc

#endif  // defined(__linux__)
