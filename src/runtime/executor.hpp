// Master-worker runtime: a first-class *online* execution backend. Real
// workers (one std::thread each, or one forked PROCESS each -- see
// ExecutorOptions::transport) plus the calling thread as the master,
// which runs an event-driven loop: it consults the scheduler live
// (through sim::ExecutionView), moves real block panels through the
// data-plane Transport (runtime/transport.hpp), and reacts to the
// workers' real state -- workers that really finish early get collected
// early, and a worker with a free inbox slot is fed before one whose
// buffers are full, regardless of what the cost model predicted.
//
// This is the in-machine stand-in for the paper's MPI deployment:
//  * any Scheduler drives it directly (execute_online); demand-driven
//    policies make their decisions on real data, not on a pre-recorded
//    log. Het keeps its two-phase structure: its builder still simulates
//    the eight variants and hands the runtime a ReplayScheduler;
//  * the master owns A, B and C, extracts block panels into messages and
//    folds returned C chunks back in (the "centralized data" hypothesis);
//  * the transport enforces the worker-side buffer limits for real --
//    bounded channels on the thread transport, explicit buffer credits
//    on the stream transport; a master pushing past a worker's buffers
//    blocks -- while a model mirror keeps the ExecutionView bookkeeping
//    schedulers read;
//  * heterogeneity can be emulated as in the paper's experiments -- a
//    worker computes each update `slowdown` times -- and can change
//    mid-run through a wall-clock SlowdownSchedule (the adaptive,
//    time-varying-platform scenario);
//  * a worker thread that throws is propagated: channels shut down, all
//    threads are joined, and the worker's exception rethrows from the
//    master (never std::terminate). With ExecutorOptions::
//    tolerate_faults the master instead SURVIVES the loss: the dead
//    worker's channels drain back into the buffer pool, the model
//    mirror rolls back any decision the death interrupted, the worker
//    is marked failed on the ExecutionView, and the live scheduler
//    (an FT-* policy) re-assigns the lost chunk to the survivors.
//
// The runtime targets correctness demonstration and online-scheduling
// experiments, not makespan measurement (wall time on one shared machine
// says nothing about a star network; model-projected times live in the
// RunResult its mirror emits -- the same shape the simulator produces).
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "matrix/matrix.hpp"
#include "matrix/partition.hpp"
#include "matrix/tuning.hpp"
#include "platform/perturbation.hpp"
#include "platform/platform.hpp"
#include "runtime/buffer_pool.hpp"
#include "runtime/transport.hpp"
#include "sim/scheduler.hpp"

namespace hmxp::runtime {

struct ExecutorOptions {
  /// Data plane the run's workers live on (runtime/transport.hpp):
  /// kThread (in-process, the default); or one forked worker process
  /// per worker -- real address-space isolation, where a SIGKILL'd child
  /// is a recoverable worker failure under tolerate_faults -- over a
  /// socketpair stream (kProcess), a dialed loopback-TCP stream whose
  /// dropped connections redial and rejoin (kTcp), or a shared-memory
  /// arena (kShm). Every other option below behaves identically on all
  /// four.
  TransportKind transport = TransportKind::kThread;
  /// Per-worker compute repetition factors (>= 1); empty means all 1.
  /// Entry i applies to worker i, mirroring the paper's slowdown trick.
  std::vector<int> compute_slowdown;
  /// Dynamic perturbation: per-worker slowdown factors that change
  /// mid-run, keyed on WALL seconds since the run began. Multiplies
  /// compute_slowdown; workers re-read their factor before every step.
  platform::SlowdownSchedule perturbation;
  /// Verify C against a reference product on completion (costly for
  /// large matrices; on by default since the runtime exists to prove
  /// schedules correct).
  bool verify = true;
  /// Numerical tolerance for verification (absolute, per element).
  double tolerance = 1e-9;
  /// Record the model mirror's event trace into the report's RunResult.
  bool record_trace = false;
  /// Fault-injection hook, called by worker threads before computing
  /// each step (worker index, step index). An exception thrown here
  /// kills the worker: with tolerate_faults the master recovers, without
  /// it the run fails through the clean propagation path -- used by
  /// tests and fault-tolerance experiments.
  std::function<void(int worker, std::size_t step)> fault_hook;
  /// Wall-clock keyed permanent worker loss: each worker checks the
  /// schedule before every message it processes and dies past its event
  /// (the unreliable-platform counterpart of `perturbation`).
  platform::FaultSchedule faults;
  /// Survive worker loss: a dead worker (fault hook, internal
  /// exception, or fault-schedule kill) is marked failed on the
  /// ExecutionView instead of aborting the run -- its channels are
  /// drained, its pooled buffers reclaimed, its in-flight chunk returns
  /// to the pending set, and the live scheduler continues on survivors
  /// (an FT-* policy re-assigns the lost work). Off by default: a
  /// non-fault-tolerant scheduler cannot complete after a loss, so the
  /// historical fail-fast behaviour remains.
  bool tolerate_faults = false;
  /// EWMA knobs for the observed-speed feedback: per-step wall
  /// latencies fold into ExecutionView::calibrated_w / observed_drift.
  platform::CalibrationOptions calibration;
  /// Port emulation for bandwidth experiments: when > 0, the master
  /// sleeps this many wall seconds per block for every message it
  /// exchanges, scaled by the perturbation's bandwidth factor for that
  /// worker -- a throttled channel whose link speeds drift mid-run
  /// exactly like the simulator's c_i perturbation.
  double throttle_block_seconds = 0.0;
};

/// Speculation telemetry: proactive duplicates the run issued and how
/// each race resolved. Wasted updates are the insurance premium -- the
/// block-steps a cancelled (or out-raced) copy had already delivered.
struct SpeculationStats {
  std::size_t duplicates_issued = 0;     // speculative SendC decisions
  std::size_t duplicates_cancelled = 0;  // CancelMessages shipped
  std::size_t duplicates_won = 0;        // RecvC committed from a duplicate
  std::size_t wasted_updates = 0;        // delivered updates later discarded
  std::size_t stale_results = 0;         // raced results discarded by seq
};

struct ExecutorReport {
  /// Model-projected run summary from the master's mirror -- the same
  /// shape (makespan, decisions, CCR, trace, ...) the simulator emits,
  /// so experiment tables work identically on either backend.
  sim::RunResult result;
  double wall_seconds = 0.0;
  std::size_t chunks_processed = 0;
  /// Block updates accounted as results RETURN to the master (the only
  /// accounting that works identically on every transport -- a child
  /// process shares no counters). A worker that dies mid-chunk is not
  /// credited for partial steps; the chunk's updates are credited to
  /// whoever returns it, and re-executed lost work is credited each
  /// time it comes back, so under faults the total is >= the grid's
  /// update count (the mirror's RunResult.updates stays the exact
  /// effective count).
  std::size_t updates_performed = 0;
  std::vector<std::size_t> updates_per_worker;
  int workers_failed = 0;              // workers lost (and tolerated) mid-run
  /// Workers re-admitted after a mid-run reconnect (TCP transport): a
  /// rejoin counts in workers_failed too -- the disconnect was a real
  /// loss the FT machinery recovered from before the hot-join.
  int workers_rejoined = 0;
  /// Per-worker calibration outcome: EWMA-over-baseline ratio of the
  /// measured per-update wall cost (1.0 = nominal / no observation).
  std::vector<double> observed_drift;
  bool verified = false;               // true iff verify ran and passed
  double max_abs_error = 0.0;          // vs reference (when verify on)
  /// Payload-buffer recycling counters: in steady state acquires grow
  /// while allocations stay at the warm-up count (the "no per-step
  /// payload allocation" property; small per-step bookkeeping like
  /// channel nodes is outside the pool's scope). On a fleet these are
  /// the pool's CUMULATIVE lifetime counters (never reset across
  /// jobs); `buffer_pool_delta` below is this job's own slice.
  BufferPool::Stats buffer_pool;
  /// This run's contribution alone: counter fields are end-minus-start
  /// differences, gauge fields (`outstanding`, `peak_outstanding`) are
  /// as-of-run-end values. A warm fleet job in steady state allocates
  /// (near) nothing: its `buffer_pool_delta.allocations` only covers
  /// growth past every earlier job's in-flight peak, so the total
  /// across N jobs stays bounded by the worst-case in-flight
  /// population, never scaling with N. Any balanced run -- first or
  /// hundredth -- leaves `buffer_pool_delta.outstanding` covering only
  /// payloads other concurrent jobs hold.
  BufferPool::Stats buffer_pool_delta;
  /// Proactive-redundancy outcome (all zero under non-SP schedulers).
  SpeculationStats speculation;
  /// Which transport moved the data plane ("thread" / "process" / "shm"
  /// / "tcp").
  std::string transport;
  /// Data-plane counters: message counts on every transport, frame
  /// bytes and master-side serialization seconds on serializing ones.
  TransportStats transport_stats;
  /// Compute-plane provenance: the micro-kernel variant ("avx512" /
  /// "avx2+fma" / "portable") and the blocking parameters the packed
  /// tier ran with -- the same configuration forked workers verified
  /// in their bootstrap handshake. Blocking is all-zero when the run
  /// dispatched a non-packed tier (naive/tiled consume no blocking).
  std::string kernel_variant;
  matrix::BlockingParams kernel_blocking;
  /// Fleet-mode only: how many distinct workers ever held this job's
  /// lease (0 on the classic own-transport paths).
  int fleet_workers_used = 0;
};

class Fleet;  // fleet.hpp; broken include cycle

/// Lease coordination a fleet-mode master polls at every completion
/// sweep. All callbacks are invoked from the job's master thread; the
/// lease manager behind them (service/daemon.cpp) provides the mutual
/// exclusion that makes worker hand-offs safe. Any callback may be
/// empty: poll_grants/wait_grant default to "no grants ever", target to
/// "keep everything", release/worker_dead to no-ops.
struct LeaseHooks {
  /// Drains workers granted to this job since the last poll (fleet
  /// worker indices; each is idle and alive when granted).
  std::function<std::vector<int>()> poll_grants;
  /// Blocks until at least one worker is granted. An EMPTY result means
  /// the grant can never come (daemon shutting down): the job fails.
  /// Called only when the job holds zero alive workers with work left.
  std::function<std::vector<int>()> wait_grant;
  /// This job's current fair-share worker target. When the job holds
  /// more than the target, it sheds idle workers at chunk boundaries
  /// (the lease rebalancing point: a worker is only ever handed back
  /// between chunks, fully quiesced).
  std::function<int()> target;
  /// Hands an idle, alive, fully-drained worker back to the pool.
  std::function<void(int)> release;
  /// Reports a worker that REALLY died while this job held it (the
  /// job's FT-* scheduler re-completes the lost chunk on survivors;
  /// the fleet never leases the worker again).
  std::function<void(int)> worker_dead;
};

/// Per-job knobs of a fleet run (everything else -- transport, fault
/// schedules, calibration alpha -- is fixed fleet-wide at spawn).
struct FleetJobOptions {
  bool verify = false;  // off by default: fleet jobs verify via their caller
  double tolerance = 1e-9;
  bool record_trace = false;
};

/// Online execution: drives `scheduler` live against real worker
/// threads computing C += A * B with A (n_a x n_ab), B (n_ab x n_b),
/// C (n_a x n_b) under `partition`. The scheduler sees an ExecutionView
/// whose readiness reflects the workers' real state: arrived results
/// and free inbox slots (see runtime/executor.cpp). Throws
/// std::logic_error on protocol violations, std::runtime_error if
/// verification fails or a worker thread failed. `decision_log`, if
/// non-null, receives every executed decision (for parity checks and
/// replay).
ExecutorReport execute_online(sim::Scheduler& scheduler,
                              const platform::Platform& platform,
                              const matrix::Partition& partition,
                              const matrix::Matrix& a, const matrix::Matrix& b,
                              matrix::Matrix& c,
                              const ExecutorOptions& options = {},
                              std::vector<sim::Decision>* decision_log =
                                  nullptr);

/// Replay backend: executes a prerecorded decision log (e.g. from
/// sim::run) against real data, through the same online master loop.
ExecutorReport execute(const platform::Platform& platform,
                       const matrix::Partition& partition,
                       const std::vector<sim::Decision>& decisions,
                       const matrix::Matrix& a, const matrix::Matrix& b,
                       matrix::Matrix& c, const ExecutorOptions& options = {});

/// Fleet re-entry: the same online master loop, but over a LONG-LIVED
/// fleet's transport, pool and calibration state instead of its own --
/// no worker spawn, no teardown, warm buffers. The job's scheduler sees
/// the full fleet platform with every non-leased worker marked failed
/// (an FT-* policy simply schedules around them), so `scheduler` MUST
/// be fault-tolerant. Workers granted mid-run (LeaseHooks::poll_grants)
/// hot-join exactly like a re-admitted TCP worker; idle workers are
/// shed at chunk boundaries whenever the job exceeds its fair-share
/// target, and every worker is released as the tail drains -- the
/// pipelined epilogue that lets the next job's prologue start while
/// this job's last chunks come home. On any failure the job KILLS the
/// workers it still holds (reporting them dead) rather than hand a
/// non-quiesced worker to the next job. Throws like execute_online.
ExecutorReport execute_on_fleet(sim::Scheduler& scheduler, Fleet& fleet,
                                const matrix::Partition& partition,
                                const matrix::Matrix& a,
                                const matrix::Matrix& b, matrix::Matrix& c,
                                const std::vector<int>& initial_lease,
                                const LeaseHooks& hooks,
                                const FleetJobOptions& job = {},
                                std::vector<sim::Decision>* decision_log =
                                    nullptr);

/// Convenience: build the scheduler for `algorithm` and run it ONLINE on
/// real data (no pre-simulation; algorithms with a selection phase, like
/// Het, still run it inside their builder).
ExecutorReport run_on_data(const std::string& algorithm_name,
                           const platform::Platform& platform,
                           const matrix::Partition& partition,
                           const matrix::Matrix& a, const matrix::Matrix& b,
                           matrix::Matrix& c,
                           const ExecutorOptions& options = {});

}  // namespace hmxp::runtime
