// EINTR-safe file-descriptor IO for the bytes that cross a process
// boundary (the process backend's worker sockets).
//
// POSIX read/write may transfer fewer bytes than asked (signals, pipe
// buffers).  Before this helper existed each caller carried its own retry
// loop; a site that forgot one turned EINTR in the middle of a 17-byte
// barrier into a corrupt-barrier failure.  These are the only retry loops
// in the codebase — everything above them speaks in whole messages.
#pragma once

#include <cstddef>

namespace mpcsd::io {

/// Reads exactly `n` bytes into `data`, retrying on EINTR and assembling
/// partial reads.  Returns false on EOF or a read error — for our framed
/// protocols both mean the same thing: the peer is gone and the message
/// will never complete.
[[nodiscard]] bool read_full(int fd, void* data, std::size_t n) noexcept;

/// Writes exactly `n` bytes from `data`, retrying on EINTR and resuming
/// partial writes.  Returns false on a write error.  On a socket a peer
/// that is gone is such an error, not a SIGPIPE (the write uses
/// MSG_NOSIGNAL), so a host writing to a dead worker survives to report it.
[[nodiscard]] bool write_full(int fd, const void* data, std::size_t n) noexcept;

/// Closes `fd` if it is valid and resets it to -1.  Deliberately does NOT
/// retry on EINTR: on Linux the descriptor is released even when close()
/// reports EINTR, and a retry could close an fd another thread just
/// received from the kernel.
void close_fd(int& fd) noexcept;

}  // namespace mpcsd::io
