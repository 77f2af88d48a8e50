#include "runtime/socket_util.hpp"

#include <cerrno>
#include <cstring>
#include <string>

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include "runtime/serde.hpp"

namespace hmxp::runtime {

void set_tcp_nodelay(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
}

bool read_exact(int fd, std::uint8_t* out, std::size_t size, bool start) {
  std::size_t done = 0;
  while (done < size) {
    const ssize_t n = ::read(fd, out + done, size - done);
    if (n > 0) {
      done += static_cast<std::size_t>(n);
      continue;
    }
    if (n == 0) {
      if (start && done == 0) return false;
      throw PeerDisconnected("peer closed the connection mid-frame");
    }
    if (errno == EINTR) continue;
    if (errno == ECONNRESET)
      throw PeerDisconnected("connection reset by peer");
    throw std::runtime_error(std::string("socket read failed: ") +
                             std::strerror(errno));
  }
  return true;
}

void write_exact(int fd, const std::uint8_t* data, std::size_t size) {
  std::size_t done = 0;
  while (done < size) {
    const ssize_t n = ::send(fd, data + done, size - done, MSG_NOSIGNAL);
    if (n > 0) {
      done += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EPIPE || errno == ECONNRESET))
      throw PeerDisconnected("peer closed the connection mid-write");
    throw std::runtime_error(std::string("socket write failed: ") +
                             std::strerror(errno));
  }
}

bool read_frame(int fd, std::vector<std::uint8_t>& body,
                std::uint64_t max_frame_bytes) {
  std::uint8_t prefix[serde::kLengthBytes];
  if (!read_exact(fd, prefix, sizeof prefix, /*start=*/true)) return false;
  const std::uint64_t length =
      serde::checked_frame_length(prefix, max_frame_bytes);
  body.resize(static_cast<std::size_t>(length));
  read_exact(fd, body.data(), body.size(), /*start=*/false);
  return true;
}

}  // namespace hmxp::runtime
