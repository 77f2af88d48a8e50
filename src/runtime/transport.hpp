// The runtime's data plane, abstracted: everything the online master
// does to move bytes -- hand a chunk or operand batch to a worker,
// collect a finished result, decommission a dead worker, reclaim queued
// payloads -- goes through a per-worker Endpoint owned by a Transport.
//
// The master loop (runtime/executor.cpp) is written against this
// interface only; it never touches a channel, a thread, or a file
// descriptor. Two transports implement its four kinds:
//
//   * ThreadTransport (thread_transport.cpp, kThread) -- one std::thread
//     per worker over bounded in-process channels. Messages move by
//     value; the worker reads a lent A or B window in place, with the
//     master's leading dimension, and the endpoint copies a lent C
//     window into a pool vector, because the worker accumulates into
//     its C and FT rollback and SP twins need the master's untouched.
//   * The forked transport (forked_transport.cpp, kProcess, kTcp and
//     kShm) -- one forked worker PROCESS per worker (the lifecycle in
//     runtime/forked_worker.hpp), whose messages travel as frames
//     (runtime/serde.hpp) over one byte pipe (runtime/byte_pipe.hpp).
//     The kinds differ only in the pipe and in where payloads live: a
//     pre-fork socketpair(2) end with payloads inline (kProcess), a dial
//     to the master's loopback listen socket with payloads inline (kTcp,
//     whose dropped connections may come back -- the worker redials and
//     is re-admitted mid-run), or a pair of shared-memory byte rings
//     whose frames name slots of a pre-fork SharedArena the endpoint
//     packs each lent window into (kShm: zero-copy across the process
//     boundary). The real isolation of the paper's MPI deployment: a
//     SIGKILL'd child is a first-class worker failure the master
//     survives under tolerate_faults.
//
// A forked endpoint is done with a lent window when send returns; only
// a thread worker reads one later, so only a thread run has loans out
// between decisions (the loan rule in runtime/payload.hpp).
//
// All preserve the semantic load-bearing bound of the simulator's
// engine: a worker's inbox holds at most `inbox_capacity` messages (the
// chunk plus prefetch_depth + 1 operand batches), so a master pushing
// past a worker's buffer capacity BLOCKS -- channels enforce it with
// their queue bound, the forked transport with explicit buffer credits:
// every frame the master ships consumes one, and the worker sends one
// back as a kCredit frame on its pipe each time it dequeues a message,
// before it computes. A real-cluster (MPI/ssh) transport is a drop-in
// implementation of the same interface.
//
// The master never has to find that out by blocking: Endpoint::can_send
// says whether the inbox has a free slot right now, and when none of a
// job's workers can act, Transport::wait_any parks the master on all of
// them at once until the first result, freed slot or death -- a
// condition variable on the thread transport; on the forked transport
// poll(2) over the workers' sockets, or on shm a futex bell every
// worker rings when it writes to its ring.
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
  /// serialization overhead the forked transport pays per run.
  double serde_seconds = 0.0;
  /// Payload bytes that crossed the process boundary WITHOUT being
  /// copied (shm: bytes whose frames named an arena slot).
  std::size_t bytes_zero_copied = 0;
  /// Shared-arena occupancy (shm only): total slots, the
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

  /// Ships a message to the worker. Its payloads are windows the
  /// master lent (Payload::lend), and the endpoint decides how they
  /// travel (see the top of this file). Blocks while the worker's
  /// bounded inbox is full (the prefetch_depth + 1 backpressure rule).
  /// Throws if the worker is dead; with ExecutorOptions::
  /// tolerate_faults the master catches this, rolls its mirror back and
  /// recovers.
  virtual void send(WorkerMessage message) = 0;

  /// True while the worker's bounded inbox has a free slot, i.e. send()
  /// would not wait for the worker to dequeue: the channel is below
  /// capacity (thread), or a buffer credit is in hand (forked). A forked
  /// endpoint learns of returned credits when try_recv() pumps its
  /// pipe, so its answer is as fresh as the master's last sweep.
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
  /// (a dead worker's in-flight messages must not leak their buffers,
  /// nor keep the loans of the windows they carry). On shm it also
  /// reclaims every arena slot the dead worker still held -- including
  /// slots a SIGKILL'd child was holding mid-compute -- so fault
  /// recovery never leaks arena capacity.
  virtual void drain(BufferPool& pool) = 0;

  /// Worker re-admission: a transport whose workers can come BACK (the
  /// kTcp reconnect lifecycle) reports here that a failed
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
  /// master parked on them, and only for what it waits for. A forked
  /// master on sockets sleeps in poll(2) over them: a credit, a result,
  /// a death notice or an EOF all arrive as readable bytes. On shm it
  /// first checks each worker through shared memory (unread ring bytes,
  /// a result or credit in hand, a raised rx hint) and then sleeps on
  /// the ack board's bell, which every worker rings when it writes to
  /// its outbox ring or ships a death notice -- at most 10 ms at a time,
  /// since a SIGKILL'd child never rings.
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
/// workers (zero-copy), the forked transports decode inline payloads
/// into it while each child owns a private pool in its own address
/// space. `max_payload_doubles` is the largest single payload the run
/// can ship (from the partition geometry): shm sizes its arena slots
/// with it, and the forked transport derives its frame-length limit
/// from it (serde::max_frame_bytes_for) so corrupt prefixes fail
/// cleanly.
std::unique_ptr<Transport> make_transport(
    TransportKind kind, int workers, std::size_t inbox_capacity,
    const ExecutorOptions& options,
    std::chrono::steady_clock::time_point run_begin, BufferPool* pool,
    std::size_t max_payload_doubles);

std::unique_ptr<Transport> make_thread_transport(
    int workers, std::size_t inbox_capacity, const ExecutorOptions& options,
    std::chrono::steady_clock::time_point run_begin, BufferPool* pool);

/// `kind` is kProcess, kTcp or kShm.
std::unique_ptr<Transport> make_forked_transport(
    TransportKind kind, int workers, std::size_t inbox_capacity,
    const ExecutorOptions& options,
    std::chrono::steady_clock::time_point run_begin, BufferPool* pool,
    std::size_t max_payload_doubles);

}  // namespace hmxp::runtime
