#include "common/io.hpp"

#include <cerrno>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/socket.h>
#include <unistd.h>
#define MPCSD_HAVE_POSIX_IO 1
#endif

namespace mpcsd::io {

#if defined(MPCSD_HAVE_POSIX_IO)

bool read_full(int fd, void* data, std::size_t n) noexcept {
  char* p = static_cast<char*>(data);
  while (n > 0) {
    const ssize_t r = ::read(fd, p, n);
    if (r < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (r == 0) return false;  // EOF: the peer died before the message ended
    p += r;
    n -= static_cast<std::size_t>(r);
  }
  return true;
}

bool write_full(int fd, const void* data, std::size_t n) noexcept {
  const char* p = static_cast<const char*>(data);
#if defined(MSG_NOSIGNAL)
  bool socket = true;  // until send() reports otherwise
#else
  const bool socket = false;
#endif
  while (n > 0) {
#if defined(MSG_NOSIGNAL)
    const ssize_t w = socket ? ::send(fd, p, n, MSG_NOSIGNAL) : ::write(fd, p, n);
#else
    const ssize_t w = ::write(fd, p, n);
#endif
    if (w < 0) {
      if (errno == EINTR) continue;
      if (socket && errno == ENOTSOCK) {
        socket = false;
        continue;
      }
      return false;
    }
    p += w;
    n -= static_cast<std::size_t>(w);
  }
  return true;
}

void close_fd(int& fd) noexcept {
  if (fd >= 0) {
    ::close(fd);  // no EINTR retry: the fd is gone either way (Linux)
    fd = -1;
  }
}

#else  // !MPCSD_HAVE_POSIX_IO

bool read_full(int, void*, std::size_t) noexcept { return false; }
bool write_full(int, const void*, std::size_t) noexcept { return false; }
void close_fd(int& fd) noexcept { fd = -1; }

#endif

}  // namespace mpcsd::io
