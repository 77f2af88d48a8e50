#include "runtime/transport.hpp"

#include "runtime/executor.hpp"
#include "util/check.hpp"
#include "util/strings.hpp"

namespace hmxp::runtime {

const char* transport_kind_name(TransportKind kind) {
  switch (kind) {
    case TransportKind::kThread:
      return "thread";
    case TransportKind::kProcess:
      return "process";
    case TransportKind::kShm:
      return "shm";
    case TransportKind::kTcp:
      return "tcp";
  }
  return "unknown";
}

std::optional<TransportKind> parse_transport_kind(const std::string& name) {
  const std::string lower = util::to_lower(name);
  if (lower == "thread" || lower == "threads") return TransportKind::kThread;
  if (lower == "process" || lower == "processes")
    return TransportKind::kProcess;
  if (lower == "shm" || lower == "shmem" || lower == "shared-memory")
    return TransportKind::kShm;
  if (lower == "tcp" || lower == "loopback-tcp" || lower == "socket")
    return TransportKind::kTcp;
  return std::nullopt;
}

TransportStats& TransportStats::operator+=(const TransportStats& other) {
  messages_sent += other.messages_sent;
  messages_received += other.messages_received;
  bytes_sent += other.bytes_sent;
  bytes_received += other.bytes_received;
  serde_seconds += other.serde_seconds;
  bytes_zero_copied += other.bytes_zero_copied;
  arena_slots += other.arena_slots;
  arena_peak_slots += other.arena_peak_slots;
  arena_leaked_slots += other.arena_leaked_slots;
  return *this;
}

std::unique_ptr<Transport> make_transport(
    TransportKind kind, int workers, std::size_t inbox_capacity,
    const ExecutorOptions& options,
    std::chrono::steady_clock::time_point run_begin, BufferPool* pool,
    std::size_t max_payload_doubles) {
  HMXP_REQUIRE(workers > 0, "transport needs at least one worker");
  HMXP_REQUIRE(pool != nullptr, "transport needs a master buffer pool");
  switch (kind) {
    case TransportKind::kThread:
      return make_thread_transport(workers, inbox_capacity, options,
                                   run_begin, pool);
    case TransportKind::kProcess:
    case TransportKind::kTcp:
    case TransportKind::kShm:
      return make_forked_transport(kind, workers, inbox_capacity, options,
                                   run_begin, pool, max_payload_doubles);
  }
  HMXP_CHECK(false, "unknown transport kind");
  return nullptr;
}

}  // namespace hmxp::runtime
