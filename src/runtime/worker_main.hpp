// The worker side of the runtime protocol, extracted so it runs
// IDENTICALLY in a std::thread (ThreadTransport) and in a forked child
// process (the forked transport, over a socket or an shm ring pair):
// receive a chunk, then per step receive an operand batch, perform the
// real block updates (with the paper's emulated slowdown, the
// wall-clock perturbation schedule, scheduled faults and the
// fault-injection hook), and hand the finished chunk back with its
// measured per-step latencies.
//
// The transport a worker runs over is abstracted as a WorkerPort; the
// loop itself never knows whether its messages cross a channel, a
// socket or a ring. Errors propagate by exception to the caller, which owns the
// transport-specific death protocol (a thread records the exception and
// closes its channels; a child process ships a kError notice, exits
// non-zero and lets the socket EOF carry the rest).
#pragma once

#include <chrono>
#include <functional>
#include <optional>

#include "platform/perturbation.hpp"
#include "runtime/buffer_pool.hpp"
#include "runtime/messages.hpp"

namespace hmxp::runtime {

/// Per-worker configuration, snapshotted from ExecutorOptions by the
/// transport that spawns the worker. Pointed-to schedules must outlive
/// the worker (they live in the executor's options; a forked child
/// inherits its own copy-on-write copy of them).
struct WorkerContext {
  int index = 0;
  /// Static compute repetition factor (>= 1), the paper's slowdown trick.
  int base_slowdown = 1;
  const platform::SlowdownSchedule* perturbation = nullptr;
  const platform::FaultSchedule* faults = nullptr;
  std::function<void(int worker, std::size_t step)> fault_hook;
  std::chrono::steady_clock::time_point run_begin{};
};

struct ExecutorOptions;  // executor.hpp; broken include cycle

/// The one snapshot rule every transport shares: worker `index`'s
/// context from the run's options (schedules and hook stay pointers
/// into `options`, which must outlive the worker).
WorkerContext make_worker_context(const ExecutorOptions& options, int index,
                                  std::chrono::steady_clock::time_point
                                      run_begin);

/// The worker's view of its transport: blocking message intake (nullopt
/// = closed, exit cleanly) and result return.
class WorkerPort {
 public:
  virtual ~WorkerPort() = default;
  virtual std::optional<WorkerMessage> receive() = 0;
  virtual void send(ResultMessage result) = 0;
  /// Non-blocking peek-and-take: the next message if one is ALREADY
  /// buffered, nullopt otherwise (which never means end-of-stream --
  /// only receive() signals that). The worker loop uses it to spot a
  /// CancelMessage queued behind operand batches before paying for the
  /// steps a revoked chunk would waste. Ports without cheap polling may
  /// keep the default: lookahead is an optimization, never a
  /// correctness requirement.
  virtual std::optional<WorkerMessage> try_receive() { return std::nullopt; }
};

/// Runs the worker protocol until the port closes. Payload buffers cycle
/// through `pool` (the shared master pool for thread workers, a private
/// per-process pool for forked workers); lent windows go back to their
/// lender instead. Throws on scheduled faults, fault-hook injections,
/// protocol violations, or port errors.
void worker_main(const WorkerContext& context, WorkerPort& port,
                 BufferPool& pool);

}  // namespace hmxp::runtime
