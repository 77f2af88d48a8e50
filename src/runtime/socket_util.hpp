// Blocking socket I/O: the hello -> ack handshake on both sides of
// every forked worker's socket (runtime/forked_worker.hpp), the death
// notice a dying worker ships, and the service wire. One implementation
// of the EINTR-retry / MSG_NOSIGNAL discipline -- and one place where
// "the peer vanished" is classified. Past the handshake a worker's
// frames, credits included, go through runtime/byte_pipe.hpp instead:
// nonblocking writes and buffered reads on the same socket, or the shm
// rings.
//
// Death classification matters to the fault-tolerant path: an EOF in
// the middle of a frame (or mid-handshake), or a write to a closed
// peer, means the PEER died, which a TCP worker answers by reconnecting
// and the master by recovering the orphaned chunk -- while a malformed
// frame means protocol corruption, which is never retried.
// PeerDisconnected keeps the two distinct where a generic runtime_error
// conflated them; SocketPipe and the forked worker's port throw it too.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace hmxp::runtime {

/// The peer closed the connection part-way through a frame (or the
/// stream reset under us): the other PROCESS is gone or the link
/// dropped, not a protocol bug. Transports catch this type to route
/// into their reconnect / fault-recovery paths.
class PeerDisconnected : public std::runtime_error {
 public:
  explicit PeerDisconnected(const std::string& what)
      : std::runtime_error(what) {}
};

/// Thrown from a fault_hook inside a TCP worker to sever its connection
/// mid-run WITHOUT killing the process: the worker closes its socket
/// abruptly (no goodbye, no error notice), the master observes a dead
/// connection and recovers the orphaned chunk, and the worker redials
/// and re-handshakes -- the disconnect/reconnect lifecycle a real
/// cluster run would see on a flaky link. A worker whose link cannot be
/// re-made (a socketpair, a thread) dies of it like any other exception.
class TcpDisconnectFault : public PeerDisconnected {
 public:
  explicit TcpDisconnectFault(const std::string& what)
      : PeerDisconnected(what) {}
};

/// Disables Nagle on a TCP socket: credits and cancels are
/// latency-critical one-liners that must never wait behind a payload.
void set_tcp_nodelay(int fd);

/// Reads exactly `size` bytes from a blocking fd; returns false on a
/// clean EOF at a frame boundary (`start` == true, nothing read yet),
/// throws PeerDisconnected on mid-frame EOF or a connection reset, and
/// std::runtime_error on other errors. Retries EINTR.
bool read_exact(int fd, std::uint8_t* out, std::size_t size, bool start);

/// Writes exactly `size` bytes to a blocking fd (MSG_NOSIGNAL, EINTR
/// retried). A broken pipe / reset throws PeerDisconnected; other
/// errors throw std::runtime_error.
void write_exact(int fd, const std::uint8_t* data, std::size_t size);

/// Reads one length-prefixed frame into `body` (prefix stripped) from a
/// blocking fd. Returns false on clean EOF at a frame boundary. The
/// declared length is validated against `max_frame_bytes` BEFORE any
/// allocation: a corrupt or hostile prefix must fail the connection,
/// never drive a multi-GiB resize.
bool read_frame(int fd, std::vector<std::uint8_t>& body,
                std::uint64_t max_frame_bytes);

}  // namespace hmxp::runtime
