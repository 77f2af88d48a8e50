// The runtime's data plane, abstracted: everything the online master
// does to move bytes -- hand a chunk or operand batch to a worker,
// collect a finished result, decommission a dead worker, reclaim queued
// payloads -- goes through a per-worker Endpoint owned by a Transport.
//
// The master loop (runtime/executor.cpp) is written against this
// interface only; it never touches a channel, a thread, or a file
// descriptor. Three transports implement its four kinds:
//
//   * ThreadTransport (thread_transport.cpp, kThread) -- one std::thread
//     per worker over bounded in-process channels. Zero-copy: messages
//     move by value, payload vectors cycle through the shared
//     BufferPool.
//   * StreamTransport (stream_transport.cpp, kProcess and kTcp) -- one
//     forked worker PROCESS per worker over one byte stream, messages
//     serialized as length-prefixed frames (runtime/serde.hpp). The
//     kinds differ only in where a worker's fd comes from: a pre-fork
//     socketpair(2) end (kProcess), or a dial to the master's loopback
//     listen socket (kTcp), whose dropped connections may come back --
//     the worker redials and is re-admitted mid-run. The real isolation
//     of the paper's MPI deployment: a SIGKILL'd child is a first-class
//     worker failure the master survives under tolerate_faults.
//   * ShmTransport (shm_transport.cpp, kShm) -- forked workers whose
//     whole data plane lives in pre-fork MAP_SHARED memory: payloads in
//     a SharedArena, descriptor frames (slot, length) in per-worker SPSC
//     byte rings, and dequeue acknowledgements on a futex-backed shared
//     ack board. The socketpair survives only as the bootstrap and
//     death channel (handshake, worker error reports, EOF on child
//     exit). Zero-copy ACROSS the process boundary: process isolation
//     at thread-backend speed.
//
// The two fork-based transports share one worker-process lifecycle
// (runtime/forked_worker.hpp): spawning, the hello -> ack handshake,
// death classification and reaping.
//
// All preserve the semantic load-bearing bound of the simulator's
// engine: a worker's inbox holds at most `inbox_capacity` messages (the
// chunk plus prefetch_depth + 1 operand batches), so a master pushing
// past a worker's buffer capacity BLOCKS -- channels enforce it with
// their queue bound, the stream transport with explicit buffer credits
// the worker returns as it dequeues, the shm transport by comparing its
// sent counter against the worker's ack-board dequeue counter. A
// real-cluster (MPI/ssh) transport is a drop-in implementation of the
// same interface.
//
// The master never has to find that out by blocking: Endpoint::can_send
// says whether the inbox has a free slot right now, and when none of a
// job's workers can act, Transport::wait_any parks the master on all of
// them at once until the first result, freed slot or death -- a
// condition variable on the thread transport, poll(2) over the sockets
// on the stream transport, a futex word on the shm ack board.
#pragma once

#include <chrono>
#include <cstddef>
#include <exception>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "runtime/buffer_pool.hpp"
#include "runtime/messages.hpp"

namespace hmxp::runtime {

struct ExecutorOptions;  // executor.hpp; broken include cycle

enum class TransportKind { kThread, kProcess, kShm, kTcp };

/// "thread", "process", "shm" or "tcp".
const char* transport_kind_name(TransportKind kind);
/// Parses a transport name (case-insensitive); nullopt if unrecognized.
std::optional<TransportKind> parse_transport_kind(const std::string& name);

/// Aggregate data-plane counters for one run. Message counts are filled
/// by every transport; byte and serialization-time counters only by
/// transports that serialize (the thread transport moves messages
/// zero-copy, so its bytes stay 0 by design).
struct TransportStats {
  std::size_t messages_sent = 0;      // master -> workers
  std::size_t messages_received = 0;  // workers -> master (results)
  std::size_t bytes_sent = 0;         // serialized frame bytes out
  std::size_t bytes_received = 0;     // serialized frame bytes in
  /// Master-side wall seconds spent encoding and decoding frames: the
  /// serialization overhead the stream transport pays per run.
  double serde_seconds = 0.0;
  /// Payload bytes that crossed the process boundary WITHOUT being
  /// copied (shm transport: bytes referenced by descriptor frames).
  std::size_t bytes_zero_copied = 0;
  /// Shared-arena occupancy (shm transport only): total slots, the
  /// high-water mark of simultaneously held slots, and slots still held
  /// at shutdown (must be 0 -- anything else is a reclamation bug).
  std::size_t arena_slots = 0;
  std::size_t arena_peak_slots = 0;
  std::size_t arena_leaked_slots = 0;

  /// Field-wise accumulation. Transports keep one stats slot PER
  /// endpoint (each endpoint writes only its own, so two master loops
  /// driving disjoint endpoint sets -- concurrent jobs on a shared
  /// fleet -- never race on a counter) and sum the slots here. Only
  /// meaningful at a quiescent point: after shutdown, or between jobs.
  TransportStats& operator+=(const TransportStats& other);
};

/// The master's handle to ONE worker's data plane.
class Endpoint {
 public:
  virtual ~Endpoint() = default;

  /// Ships a message to the worker. Blocks while the worker's bounded
  /// inbox is full (the prefetch_depth + 1 backpressure rule). Throws
  /// if the worker is dead; with ExecutorOptions::tolerate_faults the
  /// master catches this, rolls its mirror back and recovers.
  virtual void send(WorkerMessage message) = 0;

  /// True while the worker's bounded inbox has a free slot, i.e. send()
  /// would not wait for the worker to dequeue: the channel is below
  /// capacity (thread), a buffer credit is in hand (stream), or fewer
  /// than `inbox_capacity` sent frames are unacknowledged (shm). The
  /// stream endpoint learns of returned credits when try_recv() pumps
  /// its socket, so its answer is as fresh as the master's last sweep.
  virtual bool can_send() const = 0;

  /// Non-blocking receive of a finished chunk; nullopt when none is
  /// ready. Also the transport's failure-detection pump: a dead worker
  /// is discovered here at the latest (failed() flips).
  virtual std::optional<ResultMessage> try_recv() = 0;

  /// Blocking receive: the master waiting on the port for a worker to
  /// hand its chunk back. nullopt means the worker is gone for good.
  virtual std::optional<ResultMessage> recv() = 0;

  /// True once the worker died (exception in a worker thread, a worker
  /// process that exited or was SIGKILL'd). Sticky.
  virtual bool failed() const = 0;
  /// The root cause, valid once failed() is observed. Thread workers
  /// hand their real exception across; process workers synthesize one
  /// from the exit status (a child cannot serialize its exception).
  virtual std::exception_ptr error() const = 0;

  /// True once the master decommissioned the worker via kill().
  virtual bool killed() const = 0;
  /// Master-initiated decommission: tears the worker down without
  /// waiting for it to drain (closes channels / SIGKILLs the child).
  /// Errors the worker raises on the way out are expected, not failures.
  virtual void kill() = 0;

  /// Hands every payload still queued on the endpoint back to the pool
  /// (a dead worker's in-flight messages must not leak their buffers).
  /// The shm endpoint additionally reclaims every arena slot the dead
  /// worker still held -- including slots a SIGKILL'd child was holding
  /// mid-compute -- so fault recovery never leaks arena capacity.
  virtual void drain(BufferPool& pool) = 0;

  /// Checks out payload storage for a message headed to THIS worker.
  /// The default hands out a pool vector (thread/stream transports);
  /// the shm endpoint instead acquires an arena slot tagged with this
  /// worker, blocking -- and pumping its socket -- while the arena is
  /// full, which makes arena capacity part of the backpressure rule.
  virtual Payload allocate_payload(std::size_t size, BufferPool& pool);

  /// Worker re-admission: a transport whose workers can come BACK (the
  /// kTcp stream's reconnect lifecycle) reports here that a failed
  /// worker re-established its connection -- the endpoint is healthy
  /// again (fresh connection, credits reset, sticky failure cleared)
  /// and the master may resume scheduling it. The master polls this
  /// only AFTER it fully recovered from the failure (mirror rolled
  /// back, in-flight chunk returned), so a rejoin is a hot-join of an
  /// idle worker. Default: failures are final.
  virtual bool try_readmit() { return false; }
};

/// One worker a waiting master needs to hear from, and what it needs:
/// the result of the worker's chunk, or else a free inbox slot for its
/// next send.
struct Await {
  int worker = 0;
  bool result = false;
};

/// Owns the worker set of one run: endpoints while running, join/reap
/// on shutdown.
class Transport {
 public:
  virtual ~Transport() = default;

  virtual TransportKind kind() const = 0;
  const char* name() const { return transport_kind_name(kind()); }
  virtual int worker_count() const = 0;
  virtual Endpoint& endpoint(int worker) = 0;

  /// The master's wait on many workers at once: blocks until one of
  /// `awaits` holds -- that worker has a result for try_recv(), or a
  /// free inbox slot -- or one of them died, or `timeout` passed.
  /// Returns at once when one already holds; an early return is
  /// allowed, the caller looks at its workers again either way. The
  /// thread transport's workers notify the condition variable of the
  /// master parked on them, and only for what it waits for; the stream
  /// transport's master sleeps in poll(2) over the sockets; the shm
  /// transport's on a futex word of the ack board that every worker
  /// bumps, waking a parked master.
  virtual void wait_any(const std::vector<Await>& awaits,
                        std::chrono::milliseconds timeout) = 0;

  /// Stops every worker and reclaims it (join threads / reap child
  /// processes). Idempotent, noexcept: safe on error paths, called by
  /// the destructor as a backstop.
  virtual void shutdown() noexcept = 0;

  virtual TransportStats stats() const = 0;
};

/// Spawns the workers of one run on the requested transport.
/// `inbox_capacity` is the bounded per-worker inbox depth (the chunk
/// message plus prefetch_depth + 1 operand slots). `pool` is the
/// master-side payload pool: the thread transport shares it with its
/// workers (zero-copy), the stream transport recycles master-side
/// encode/decode buffers through it while each child owns a private
/// pool in its own address space. `max_payload_doubles` is the largest
/// single payload the run can ship (from the partition geometry): the
/// shm transport sizes its arena slots with it, and every serializing
/// transport derives its per-endpoint frame-length limit from it
/// (serde::max_frame_bytes_for) so corrupt prefixes fail cleanly.
std::unique_ptr<Transport> make_transport(
    TransportKind kind, int workers, std::size_t inbox_capacity,
    const ExecutorOptions& options,
    std::chrono::steady_clock::time_point run_begin, BufferPool* pool,
    std::size_t max_payload_doubles);

std::unique_ptr<Transport> make_thread_transport(
    int workers, std::size_t inbox_capacity, const ExecutorOptions& options,
    std::chrono::steady_clock::time_point run_begin, BufferPool* pool);

/// `kind` is kProcess or kTcp.
std::unique_ptr<Transport> make_stream_transport(
    TransportKind kind, int workers, std::size_t inbox_capacity,
    const ExecutorOptions& options,
    std::chrono::steady_clock::time_point run_begin, BufferPool* pool,
    std::size_t max_payload_doubles);

std::unique_ptr<Transport> make_shm_transport(
    int workers, std::size_t inbox_capacity, const ExecutorOptions& options,
    std::chrono::steady_clock::time_point run_begin, BufferPool* pool,
    std::size_t max_payload_doubles);

}  // namespace hmxp::runtime
