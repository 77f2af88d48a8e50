#include "runtime/executor.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <exception>
#include <optional>
#include <stdexcept>
#include <thread>

#include "core/algorithms.hpp"
#include "matrix/gemm.hpp"
#include "runtime/buffer_pool.hpp"
#include "runtime/fleet.hpp"
#include "runtime/messages.hpp"
#include "runtime/transport.hpp"
#include "util/check.hpp"

#if defined(__linux__)
#include <sys/mman.h>
#include <unistd.h>
#endif

namespace hmxp::runtime {

namespace {

using Clock = std::chrono::steady_clock;

/// Element window of a block rectangle under a partition (edge blocks
/// may be short, so the window is clipped to the matrix extents).
struct Window {
  std::size_t row0 = 0, row1 = 0, col0 = 0, col1 = 0;
  std::size_t rows() const { return row1 - row0; }
  std::size_t cols() const { return col1 - col0; }
};

Window c_window(const matrix::Partition& part, const matrix::BlockRect& rect) {
  Window window;
  window.row0 = rect.i0 * part.q();
  window.row1 = rect.i1 == part.r() ? part.n_a() : rect.i1 * part.q();
  window.col0 = rect.j0 * part.q();
  window.col1 = rect.j1 == part.s() ? part.n_b() : rect.j1 * part.q();
  return window;
}

/// Copies an element window into transport-allocated payload storage:
/// a pool-recycled vector (thread/process) or a shared-arena slot the
/// shm worker will read in place. In steady state this is a pure copy,
/// no heap allocation -- and for the shm transport it is the ONLY copy
/// the payload ever experiences.
Payload copy_window(Endpoint& endpoint, BufferPool& pool,
                    const matrix::Matrix& source, std::size_t row0,
                    std::size_t row1, std::size_t col0, std::size_t col1) {
  Payload payload =
      endpoint.allocate_payload((row1 - row0) * (col1 - col0), pool);
  matrix::View dst(payload.data(), row1 - row0, col1 - col0, col1 - col0);
  matrix::copy_into(source.window(row0, col0, row1 - row0, col1 - col0), dst);
  return payload;
}

/// The largest single payload a run under `part` can ship: a whole-C
/// chunk, a full-height A panel, or a full-width B panel. Sizes the shm
/// transport's arena slots (MAP_NORESERVE keeps untouched tails free).
std::size_t max_payload_doubles(const matrix::Partition& part) {
  const std::size_t c_doubles = part.n_a() * part.n_b();
  const std::size_t a_doubles = part.n_a() * part.n_ab();
  const std::size_t b_doubles = part.n_ab() * part.n_b();
  return std::max(c_doubles, std::max(a_doubles, b_doubles));
}

/// Excludes the matrices' element storage from fork inheritance while
/// the forking transports spawn their workers, then restores it.
///
/// Worker processes never touch the master's matrices -- every payload
/// reaches them serialized (stream transport) or through the shared
/// arena (shm transport) -- yet fork() still copies the page tables of
/// those megabytes and marks every writable page copy-on-write. The
/// master then takes a soft fault on each C page it merges results
/// into, every run. MADV_DONTFORK keeps the spans out of the children
/// entirely: cheaper forks, no post-fork CoW tax. Best-effort (madvise
/// can fail on exotic mappings; that only restores the old cost) and
/// interior-page only, so allocator metadata sharing a page with the
/// buffer's edges is never affected.
class ForkVisibilityGuard {
 public:
  ForkVisibilityGuard(bool active, const matrix::Matrix& a,
                      const matrix::Matrix& b, const matrix::Matrix& c)
      : active_(active), a_(a), b_(b), c_(c) {
    if (!active_) return;
    advise(a_, /*dont_fork=*/true);
    advise(b_, /*dont_fork=*/true);
    advise(c_, /*dont_fork=*/true);
  }
  ~ForkVisibilityGuard() {
    if (!active_) return;
    advise(a_, /*dont_fork=*/false);
    advise(b_, /*dont_fork=*/false);
    advise(c_, /*dont_fork=*/false);
  }
  ForkVisibilityGuard(const ForkVisibilityGuard&) = delete;
  ForkVisibilityGuard& operator=(const ForkVisibilityGuard&) = delete;

 private:
  static void advise(const matrix::Matrix& m, bool dont_fork) {
#if defined(__linux__) && defined(MADV_DONTFORK)
    const auto begin = reinterpret_cast<std::uintptr_t>(m.data());
    const auto end = begin + m.size() * sizeof(double);
    static const std::uintptr_t page =
        static_cast<std::uintptr_t>(::sysconf(_SC_PAGESIZE));
    const std::uintptr_t lo = (begin + page - 1) & ~(page - 1);
    const std::uintptr_t hi = end & ~(page - 1);
    if (hi > lo)
      ::madvise(reinterpret_cast<void*>(lo), hi - lo,
                dont_fork ? MADV_DONTFORK : MADV_DOFORK);
#else
    (void)m;
    (void)dont_fork;
#endif
  }

  bool active_;
  const matrix::Matrix& a_;
  const matrix::Matrix& b_;
  const matrix::Matrix& c_;
};

/// A model-time span no schedule of the instance outlasts: every
/// communication and every update serialized on the slowest link and
/// CPU. Added to the start of an action a worker cannot take yet, it
/// ranks every action some worker CAN take first, for any policy that
/// ranks by start or finish time, while staying finite -- a policy left
/// with only blocked choices still returns one.
model::Time blocked_offset(const platform::Platform& platform,
                           const matrix::Partition& part) {
  model::Time c = 0.0, w = 0.0;
  for (int i = 0; i < platform.size(); ++i) {
    c = std::max(c, platform.worker(i).c);
    w = std::max(w, platform.worker(i).w);
  }
  const auto blocks = static_cast<double>(part.r() * part.s());
  const double updates = blocks * static_cast<double>(part.t());
  return 1.0 + 2.0 * blocks * c + updates * (2.0 * c + w);
}

/// The event-driven master: implements ExecutionView over real workers
/// behind the data-plane Transport (threads or forked processes -- the
/// master never knows which). Scheduler-visible bookkeeping (port
/// clock, WorkerProgress, coverage) lives in a model mirror -- a
/// sim::Engine over the same instance that executes every decision the
/// master really performs -- while readiness is overridden with the
/// workers' REAL state: an action a worker can take right now (a send
/// into a free inbox slot, the RecvC of a result that has arrived)
/// keeps the mirror's timing, and one it cannot take yet ranks behind
/// every action that can (see earliest_start). Policies that rank by
/// time therefore serve whichever worker can act now, as the paper's
/// demand-driven master feeds whichever worker has a free buffer. When
/// no worker of the job can act at all, the master parks on all of
/// them at once (Transport::wait_any) until the first result, freed
/// slot or death. A policy that still picks a blocked action (one that
/// ranks by structure, or a replayed log) blocks in the transport,
/// like a decision blocks the simulated port.
class OnlineExecutor final : public sim::ExecutionView {
 public:
  OnlineExecutor(const platform::Platform& platform,
                 const matrix::Partition& partition, const matrix::Matrix& a,
                 const matrix::Matrix& b, matrix::Matrix& c,
                 const ExecutorOptions& options)
      : mirror_(sim::InstanceContext::make(platform, partition),
                options.record_trace),
        a_(a),
        b_(b),
        c_(c),
        options_(options),
        worker_count_(static_cast<std::size_t>(platform.size())),
        blocked_offset_(blocked_offset(platform, partition)),
        views_(worker_count_),
        pending_(worker_count_),
        updates_per_worker_(worker_count_, 0),
        own_speed_(worker_count_),
        failure_handled_(worker_count_, 0) {
    pool_ = &own_pool_;
    wall_speed_ = &own_speed_;
  }

  /// Fleet mode: the same master loop, re-seated over a long-lived
  /// fleet's transport, pool and calibration vector. The mirror spans
  /// the FULL fleet platform; every worker outside `initial_lease`
  /// starts marked failed (the FT-* scheduler schedules around it) and
  /// its endpoint is NEVER touched -- another job may be driving it
  /// concurrently. Grants arriving through `hooks` hot-join through the
  /// same revive path a re-admitted TCP worker uses.
  OnlineExecutor(Fleet& fleet, const matrix::Partition& partition,
                 const matrix::Matrix& a, const matrix::Matrix& b,
                 matrix::Matrix& c, const FleetJobOptions& job,
                 const std::vector<int>& initial_lease,
                 const LeaseHooks& hooks)
      : mirror_(sim::InstanceContext::make(fleet.platform(), partition),
                job.record_trace),
        a_(a),
        b_(b),
        c_(c),
        options_(fleet.options()),
        worker_count_(static_cast<std::size_t>(fleet.size())),
        blocked_offset_(blocked_offset(fleet.platform(), partition)),
        views_(worker_count_),
        pending_(worker_count_),
        updates_per_worker_(worker_count_, 0),
        failure_handled_(worker_count_, 0),
        fleet_(&fleet),
        hooks_(&hooks),
        leased_(worker_count_, 0),
        ever_leased_(worker_count_, 0) {
    options_.verify = job.verify;
    options_.tolerance = job.tolerance;
    options_.record_trace = job.record_trace;
    pool_ = &fleet.pool();
    wall_speed_ = &fleet.speeds();
    transport_ = &fleet.transport();
    for (const int w : initial_lease) {
      HMXP_REQUIRE(w >= 0 && static_cast<std::size_t>(w) < worker_count_,
                   "lease index out of range");
      HMXP_REQUIRE(fleet.alive(w), "cannot lease a dead worker");
      leased_[static_cast<std::size_t>(w)] = 1;
      ever_leased_[static_cast<std::size_t>(w)] = 1;
    }
    for (std::size_t w = 0; w < worker_count_; ++w) {
      if (leased_[w]) continue;
      // Foreign (or initially unleased) worker: dead on this job's
      // mirror, endpoint untouched. NOT counted in workers_failed_.
      failure_handled_[w] = 1;
      mirror_.fail_worker(static_cast<int>(w));
    }
  }

  ~OnlineExecutor() override { shutdown(); }

  // ----- ExecutionView: the state the live scheduler decides from -----
  model::Time now() const override { return mirror_.now(); }
  int worker_count() const override { return mirror_.worker_count(); }
  const platform::Platform& platform() const override {
    return mirror_.platform();
  }
  const matrix::Partition& partition() const override {
    return mirror_.partition();
  }
  const sim::WorkerProgress& progress(int worker) const override {
    return mirror_.progress(worker);
  }
  /// The mirror's start, re-ranked by what the worker can REALLY do
  /// now, so policies that rank by time react to real worker speeds
  /// (including mid-run perturbations the model knows nothing about):
  ///  * a RecvC whose result has arrived is collectable immediately;
  ///  * a send (chunk, operands, cancel) into a free inbox slot keeps
  ///    the mirror's start; into a full inbox it costs one
  ///    blocked_offset_ -- the slot frees after the worker's next step;
  ///  * a RecvC whose result has not arrived costs two -- it frees only
  ///    after every step the worker still has queued.
  /// kNever stays kNever, which also keeps the endpoints of workers
  /// this job does not lease (dead on its mirror) untouched.
  model::Time earliest_start(int worker, sim::CommKind kind) const override {
    const model::Time start = mirror_.earliest_start(worker, kind);
    if (std::isinf(start)) return start;
    if (kind == sim::CommKind::kRecvC)
      return pending_[static_cast<std::size_t>(worker)].has_value()
                 ? mirror_.now()
                 : start + 2.0 * blocked_offset_;
    return transport_->endpoint(worker).can_send() ? start
                                                   : start + blocked_offset_;
  }
  model::Time comm_duration(int worker, sim::CommKind kind) const override {
    return mirror_.comm_duration(worker, kind);
  }
  model::BlockCount unassigned_blocks() const override {
    return mirror_.unassigned_blocks();
  }
  model::BlockCount updates_total() const override {
    return mirror_.updates_total();
  }
  bool all_work_done() const override { return mirror_.all_work_done(); }
  const std::shared_ptr<const sim::InstanceContext>& context() const override {
    return mirror_.context();
  }
  sim::EngineState model_state() const override { return mirror_.snapshot(); }
  bool rect_assigned(const matrix::BlockRect& rect) const override {
    return mirror_.rect_assigned(rect);
  }

  /// Marks the worker failed and reclaims everything it held: the
  /// mirror returns its in-flight chunk to the pending set, queued
  /// messages hand their payload buffers back to the pool, and a
  /// still-running worker is decommissioned through its endpoint (the
  /// exit error that may cause is expected and never rethrown).
  /// Idempotent; also the master's internal path when it detects a dead
  /// worker.
  void fail_worker(int worker) override {
    const auto w = static_cast<std::size_t>(worker);
    HMXP_REQUIRE(worker >= 0 && w < worker_count_,
                 "worker index out of range");
    if (failure_handled_[w]) return;
    failure_handled_[w] = 1;
    ++workers_failed_;
    Endpoint& endpoint = transport_->endpoint(worker);
    if (!endpoint.failed()) endpoint.kill();
    // The pending result FIRST: its payload may be an arena slot the
    // dead worker handed over, and drain()'s crash reclamation below
    // frees every slot still tagged with the worker -- releasing after
    // would double-free a slot another worker may already hold.
    if (pending_[w].has_value()) {
      pending_[w]->c.release_to(*pool_);
      pending_[w].reset();
    }
    endpoint.drain(*pool_);
    views_[w].plan.reset();
    mirror_.fail_worker(worker);
    if (fleet_ != nullptr && leased_[w]) {
      // A real death, not a lease release: the fleet permanently loses
      // the worker and the lease manager must stop offering it.
      leased_[w] = 0;
      publish_drift(w);
      fleet_->mark_dead(worker);
      if (hooks_->worker_dead) hooks_->worker_dead(worker);
    }
  }

  /// Static w_i scaled by the worker's observed wall-clock drift: the
  /// EWMA of its measured per-update step latencies over its first
  /// observation. Model units in, model units out, so policies mix it
  /// freely with the platform's w_i -- and a worker that slowed down
  /// 2x mid-run costs 2x in every lookahead that consults it.
  model::Time calibrated_w(int worker) const override {
    return mirror_.platform().worker(worker).w * observed_drift(worker);
  }
  /// A fleet worker this job does not hold reads as its published
  /// drift: the job holding it may be updating its estimate right now.
  double observed_drift(int worker) const override {
    const auto w = static_cast<std::size_t>(worker);
    if (fleet_ != nullptr && !leased_[w]) return fleet_->drift(worker);
    return (*wall_speed_)[w].drift();
  }

  // ----- the master loop -----
  ExecutorReport run(sim::Scheduler& scheduler,
                     std::vector<sim::Decision>* decision_log) {
    run_begin_ = Clock::now();
    matrix::Matrix reference;
    if (options_.verify) reference = c_;  // C_initial; product added at end

    // Inbox capacity: the chunk message plus (prefetch + 1) operand
    // slots for the deepest layout (double buffering, depth 1). The
    // bound makes a master that overruns a worker's buffers block for
    // real; per-chunk depths below the bound are enforced in model time
    // by the mirror's SendAB timing. A fleet job skips all of this: the
    // fleet's transport (and its workers) already exist.
    if (fleet_ == nullptr) {
      // Workers never see the master's matrices (payloads travel
      // serialized or through the shared arena), so keep those pages
      // out of the forks entirely -- see ForkVisibilityGuard.
      const ForkVisibilityGuard fork_guard(
          options_.transport != TransportKind::kThread, a_, b_, c_);
      owned_transport_ = make_transport(options_.transport,
                                        static_cast<int>(worker_count_),
                                        /*inbox_capacity=*/3, options_,
                                        run_begin_, pool_,
                                        max_payload_doubles(partition()));
      transport_ = owned_transport_.get();
    }
    pool_begin_ = pool_->stats();
    const std::size_t max_decisions =
        sim::decision_budget(mirror_.partition());
    std::size_t executed = 0;
    try {
      while (true) {
        await_ready();
        sim::Decision decision = scheduler.next(*this);
        if (decision.kind == sim::Decision::Kind::kDone) break;
        // Whether this RecvC commits a speculative duplicate must be
        // read BEFORE the mirror executes (commit clears the flag).
        const bool speculative_recv =
            decision.kind == sim::Decision::Kind::kComm &&
            decision.comm == sim::CommKind::kRecvC &&
            mirror_.progress(decision.worker).chunk_speculative;
        if (options_.tolerate_faults) {
          // A worker can die between the scheduler's decision and the
          // real execution (or while the master blocks inside it). The
          // mirror executes first, so an aborted real half leaves it
          // ahead of reality: snapshot beforehand (into a reused
          // scratch state, so the per-decision snapshot allocates
          // nothing in steady state), and on a death mid-decision
          // rewind the mirror, mark the worker failed, and let the
          // scheduler re-decide against the updated view.
          mirror_.snapshot_into(rollback_state_);
          try {
            mirror_.execute(decision);
            execute_real(decision);
          } catch (...) {
            const auto w = static_cast<std::size_t>(decision.worker);
            if (decision.worker >= 0 && w < worker_count_ &&
                transport_->endpoint(decision.worker).failed() &&
                !transport_->endpoint(decision.worker).killed() &&
                !failure_handled_[w]) {
              mirror_.restore(rollback_state_);
              fail_worker(decision.worker);
              continue;  // the decision never happened
            }
            throw;
          }
        } else {
          // The mirror validates the protocol (throws std::logic_error
          // on violations) and advances the model clock; only then does
          // the decision touch real data.
          mirror_.execute(decision);
          execute_real(decision);
        }
        if (decision.kind == sim::Decision::Kind::kComm) {
          if (decision.comm == sim::CommKind::kSendC && decision.speculative)
            ++spec_stats_.duplicates_issued;
          else if (decision.comm == sim::CommKind::kCancel)
            ++spec_stats_.duplicates_cancelled;
          else if (speculative_recv)
            ++spec_stats_.duplicates_won;
        }
        if (decision_log != nullptr) decision_log->push_back(decision);
        ++executed;
        HMXP_CHECK(executed <= max_decisions,
                   "scheduler exceeded decision budget (livelock?)");
      }
    } catch (...) {
      if (fleet_ != nullptr) {
        // The job failed mid-flight. A still-leased worker may be
        // mid-chunk -- its endpoint protocol state is not at a message
        // boundary, so handing it to another job would corrupt that
        // job's stream. Kill what we hold; the fleet shrinks.
        for (std::size_t w = 0; w < worker_count_; ++w) {
          if (!leased_[w]) continue;
          try {
            fail_worker(static_cast<int>(w));
          } catch (...) {  // best-effort teardown; original error wins
          }
        }
        throw;
      }
      shutdown();
      rethrow_worker_error();  // a dead worker is the root cause
      throw;
    }
    if (fleet_ == nullptr) {
      shutdown();
      rethrow_worker_error();
    } else {
      release_remaining_leases();
    }

    ExecutorReport report;
    report.chunks_processed = chunks_processed_;
    report.updates_per_worker = updates_per_worker_;
    for (const std::size_t updates : updates_per_worker_)
      report.updates_performed += updates;
    report.workers_failed = workers_failed_;
    report.workers_rejoined = workers_rejoined_;
    // Every lease has ended, so in fleet mode this reads the drift each
    // worker's last job published, never an estimate another job may
    // be updating.
    for (std::size_t w = 0; w < worker_count_; ++w)
      report.observed_drift.push_back(observed_drift(static_cast<int>(w)));
    report.result =
        sim::collect_result(scheduler.name(), mirror_, executed);
    report.buffer_pool = pool_->stats();
    report.buffer_pool_delta = pool_begin_.delta_to(report.buffer_pool);
    report.speculation = spec_stats_;
    report.speculation.wasted_updates =
        static_cast<std::size_t>(mirror_.snapshot().wasted_updates);
    report.transport = transport_->name();
    if (fleet_ == nullptr) {
      // Fleet endpoints keep streaming for OTHER jobs while this report
      // is assembled -- reading the shared counters here would race.
      // Fleet-wide stats are read between jobs via Fleet::transport_stats.
      report.transport_stats = transport_->stats();
    }
    for (const char used : ever_leased_) report.fleet_workers_used += used;
    report.kernel_variant = matrix::packed_kernel_variant();
    // Mirrors the hello handshake: a tuned blocking only when the
    // packed tier actually ran; zeros document "no blocking consumed".
    report.kernel_blocking =
        matrix::active_kernel_tier() == matrix::KernelTier::kPacked
            ? matrix::active_blocking()
            : matrix::BlockingParams{};
    report.wall_seconds =
        std::chrono::duration<double>(Clock::now() - run_begin_).count();

    if (options_.verify) {
      matrix::gemm_parallel(a_.view(), b_.view(), reference.view());
      report.max_abs_error = matrix::Matrix::max_abs_diff(c_, reference);
      if (report.max_abs_error > options_.tolerance)
        throw std::runtime_error("runtime verification failed: max |error| = " +
                                 std::to_string(report.max_abs_error));
      report.verified = true;
    }
    return report;
  }

 private:
  /// Master replica of each worker's data-plane state: which plan it
  /// holds, its element window in C, and how many steps went out.
  struct MasterView {
    std::optional<sim::ChunkPlan> plan;
    Window window;
    std::size_t steps_sent = 0;
    /// Per-worker monotone chunk ticket: stamped on every SendC, echoed
    /// on the result, named by a cancel. Never reset -- a result whose
    /// seq is not the CURRENT chunk's raced a revocation and is stale.
    std::uint64_t seq = 0;
  };

  /// True when `result` belongs to a chunk this worker no longer owns
  /// (it shipped before a CancelMessage landed): its payload goes back
  /// to the pool and its C window is never folded in. Its measured
  /// latencies still feed calibration -- the work really happened.
  bool stale_result(std::size_t w, const ResultMessage& result) const {
    const MasterView& view = views_[w];
    return !view.plan.has_value() || result.seq != view.seq;
  }

  /// Runs before every decision: sweeps the workers, and while none of
  /// this job's workers can take its next action -- collect an arrived
  /// result once every step is out, otherwise send into a free inbox
  /// slot (an idle worker's next action is a SendC) -- parks on all of
  /// them at once until the first result, freed slot or death, then
  /// sweeps again. Each wait is bounded; the loop lasts as long as the
  /// workers make no progress, exactly as a blocking send or receive
  /// would.
  void await_ready() {
    for (;;) {
      drain_completions();
      awaits_.clear();
      for (std::size_t w = 0; w < worker_count_; ++w) {
        if (failure_handled_[w]) continue;  // dead, or not this job's
        const int worker = static_cast<int>(w);
        const bool result = mirror_.progress(worker).all_steps_received();
        if (result ? pending_[w].has_value()
                   : transport_->endpoint(worker).can_send())
          return;
        awaits_.push_back(Await{worker, result});
      }
      if (awaits_.empty()) return;  // nothing to wait on: decide
      transport_->wait_any(awaits_, kWaitSlice);
    }
  }

  /// Non-blocking sweep of every worker: results that actually arrived
  /// become visible to the scheduler (earliest_start above) before the
  /// next decision, their measured step latencies feed the calibration,
  /// and dead workers are detected EAGERLY -- a worker that dies
  /// between steps surfaces here, not whenever the master next happens
  /// to touch its endpoint (which could be never).
  void drain_completions() {
    if (fleet_ != nullptr) fleet_lease_sweep();
    for (std::size_t w = 0; w < worker_count_; ++w) {
      // NEVER touch an endpoint this job does not hold: another job's
      // master loop may be mid-protocol on it right now.
      if (fleet_ != nullptr && !leased_[w]) continue;
      Endpoint& endpoint = transport_->endpoint(static_cast<int>(w));
      if (failure_handled_[w]) {
        // A handled failure is the safe point to offer re-admission:
        // the mirror rolled back, the in-flight chunk returned to the
        // pending set, the endpoint drained. A TCP worker that
        // reconnected with its identity token rejoins HERE, idle -- the
        // scheduler simply sees it alive again and an FT-* policy hands
        // it orphans or fresh territory (hot-join, the dual of PR-4's
        // failure handling).
        if (options_.tolerate_faults && endpoint.try_readmit()) {
          failure_handled_[w] = 0;
          ++workers_rejoined_;
          mirror_.revive_worker(static_cast<int>(w));
        }
        continue;
      }
      if (endpoint.failed()) {
        if (!options_.tolerate_faults)
          throw std::runtime_error("worker failed");
        fail_worker(static_cast<int>(w));
        continue;
      }
      if (!pending_[w].has_value()) {
        while ((pending_[w] = endpoint.try_recv()).has_value()) {
          observe_result(w, *pending_[w]);
          if (!stale_result(w, *pending_[w])) break;
          pending_[w]->c.release_to(*pool_);
          pending_[w].reset();
          ++spec_stats_.stale_results;
        }
        // try_recv is also the failure pump (a dead process surfaces as
        // an EOF while reading): re-check so the death is handled THIS
        // sweep, not a decision later.
        if (endpoint.failed() && !failure_handled_[w]) {
          if (!options_.tolerate_faults)
            throw std::runtime_error("worker failed");
          fail_worker(static_cast<int>(w));
        }
      }
    }
    if (fleet_ != nullptr) fleet_starvation_guard();
  }

  // ----- fleet-mode lease plumbing -----

  /// A worker with no resident chunk, no undrained result and no plan:
  /// its endpoint is at a message boundary, so the lease can change
  /// hands without corrupting either job's protocol stream.
  bool worker_idle(std::size_t w) const {
    return !views_[w].plan.has_value() && !pending_[w].has_value() &&
           !mirror_.progress(static_cast<int>(w)).has_chunk;
  }

  void apply_grants(const std::vector<int>& grants) {
    for (const int g : grants) {
      const auto w = static_cast<std::size_t>(g);
      HMXP_REQUIRE(g >= 0 && w < worker_count_, "grant index out of range");
      if (leased_[w]) continue;
      leased_[w] = 1;
      ever_leased_[w] = 1;
      failure_handled_[w] = 0;
      // Hot-join: identical to a re-admitted TCP worker -- alive and
      // idle on the mirror, and the FT-* scheduler hands it orphans or
      // fresh territory on its next decision.
      mirror_.revive_worker(g);
    }
  }

  void release_lease(std::size_t w) {
    leased_[w] = 0;
    failure_handled_[w] = 1;  // back to "not ours": skip its endpoint
    views_[w].plan.reset();
    mirror_.fail_worker(static_cast<int>(w));
    publish_drift(w);  // before the next job may touch the estimate
    if (hooks_->release) hooks_->release(static_cast<int>(w));
  }

  /// Chunk-boundary rebalancing, run before every scheduling decision:
  /// pick up any workers the lease manager granted us, then shed idle
  /// workers we no longer need -- either because all blocks are
  /// assigned (tail drain: a finished worker immediately starts the
  /// NEXT job's prologue, the pipelined epilogue/prologue overlap) or
  /// because we hold more than our fair share. If every leased worker
  /// is gone while work remains, block on the lease manager rather
  /// than let the FT scheduler conclude the run is unrecoverable.
  void fleet_lease_sweep() {
    if (hooks_->poll_grants) apply_grants(hooks_->poll_grants());
    const bool tail = mirror_.unassigned_blocks() == 0;
    int held = 0;
    for (const char lease : leased_) held += lease;
    const int target =
        hooks_->target ? std::max(1, hooks_->target()) : held;
    for (std::size_t w = 0; w < worker_count_ && held > 0; ++w) {
      if (!leased_[w] || !worker_idle(w)) continue;
      if (!tail && held <= target) break;  // keep our fair share busy
      release_lease(w);
      --held;
    }
  }

  /// Runs after the endpoint sweep (which is where deaths surface): if
  /// this job lost its last worker mid-run, block on the lease manager
  /// for a replacement instead of letting the FT scheduler conclude
  /// the run is unrecoverable.
  void fleet_starvation_guard() {
    while (!mirror_.all_work_done()) {
      int held = 0;
      for (const char lease : leased_) held += lease;
      if (held > 0) return;
      HMXP_CHECK(hooks_->wait_grant,
                 "fleet job has no workers and no grant source");
      const std::vector<int> grants = hooks_->wait_grant();
      if (grants.empty())
        throw std::runtime_error(
            "fleet job starved: no workers left to grant");
      apply_grants(grants);
    }
  }

  void release_remaining_leases() {
    // kDone with leases still held (e.g. target kept them busy to the
    // last chunk): they are idle now -- every chunk was received -- so
    // hand them back cleanly.
    for (std::size_t w = 0; w < worker_count_; ++w)
      if (leased_[w]) release_lease(w);
  }

  /// Publishes a worker's drift for lock-free readers (the admission
  /// controller, other jobs' reports) as this job's lease on it ends:
  /// the SpeedEstimate itself is only safe to read under the lease.
  void publish_drift(std::size_t w) {
    fleet_->publish_drift(static_cast<int>(w), (*wall_speed_)[w].drift());
  }

  /// Folds a returned chunk into the master's bookkeeping: its measured
  /// per-step latencies feed the worker's wall-clock speed estimate,
  /// its performed step updates the per-worker work counters. Called
  /// exactly once per received result (on both receive paths).
  void observe_result(std::size_t w, const ResultMessage& result) {
    const std::size_t steps =
        std::min(result.step_seconds.size(), result.plan.steps.size());
    for (std::size_t s = 0; s < steps; ++s) {
      const auto updates =
          static_cast<double>(result.plan.steps[s].updates);
      const double seconds = result.step_seconds[s];
      if (updates <= 0 || seconds <= 0) continue;  // below clock resolution
      (*wall_speed_)[w].observe(seconds / updates,
                                options_.calibration.alpha);
    }
    const std::size_t performed =
        std::min(result.updates_performed, result.plan.steps.size());
    for (std::size_t s = 0; s < performed; ++s)
      updates_per_worker_[w] +=
          static_cast<std::size_t>(result.plan.steps[s].updates);
  }

  /// Port emulation: occupy the master for `blocks` x the configured
  /// per-block time, scaled by the link's drifting bandwidth factor.
  void throttle(int worker, double blocks) {
    if (options_.throttle_block_seconds <= 0.0) return;
    const double elapsed =
        std::chrono::duration<double>(Clock::now() - run_begin_).count();
    const double factor =
        options_.perturbation.bandwidth_factor(worker, elapsed);
    std::this_thread::sleep_for(std::chrono::duration<double>(
        blocks * options_.throttle_block_seconds * factor));
  }

  void execute_real(const sim::Decision& decision) {
    const auto w = static_cast<std::size_t>(decision.worker);
    MasterView& view = views_[w];
    Endpoint& endpoint = transport_->endpoint(decision.worker);
    const matrix::Partition& part = mirror_.partition();
    const std::size_t q = part.q();

    switch (decision.comm) {
      case sim::CommKind::kSendC: {
        const Window window = c_window(part, decision.chunk.rect);
        ChunkMessage message;
        message.plan = decision.chunk;
        message.element_rows = window.rows();
        message.element_cols = window.cols();
        message.c = copy_window(endpoint, *pool_, c_, window.row0, window.row1,
                                window.col0, window.col1);
        message.seq = ++view.seq;
        throttle(decision.worker,
                 static_cast<double>(decision.chunk.rect.count()));
        endpoint.send(std::move(message));
        view.plan = decision.chunk;
        view.window = window;
        view.steps_sent = 0;
        break;
      }
      case sim::CommKind::kSendAB: {
        HMXP_CHECK(view.plan.has_value(), "SendAB without a chunk");
        const sim::StepPlan& step = view.plan->steps[view.steps_sent];
        const std::size_t ek0 = step.k_begin * q;
        const std::size_t ek1 =
            step.k_end == part.t() ? part.n_ab() : step.k_end * q;
        OperandMessage message;
        message.step = view.steps_sent;
        message.k_elem_begin = ek0;
        message.k_elems = ek1 - ek0;
        message.a = copy_window(endpoint, *pool_, a_, view.window.row0,
                                view.window.row1, ek0, ek1);
        message.b = copy_window(endpoint, *pool_, b_, ek0, ek1,
                                view.window.col0, view.window.col1);
        throttle(decision.worker, static_cast<double>(step.operand_blocks));
        endpoint.send(std::move(message));
        ++view.steps_sent;
        break;
      }
      case sim::CommKind::kRecvC: {
        HMXP_CHECK(view.plan.has_value(), "RecvC without a chunk");
        std::optional<ResultMessage> result = std::move(pending_[w]);
        pending_[w].reset();
        // Not drained yet (or the drained result raced a cancel): block
        // until the CURRENT chunk's result really arrives (the master
        // waiting on the port, as in the model).
        while (!result.has_value() || stale_result(w, *result)) {
          if (result.has_value()) {
            result->c.release_to(*pool_);
            ++spec_stats_.stale_results;
          }
          result = endpoint.recv();
          if (!result.has_value()) break;
          observe_result(w, *result);
        }
        HMXP_CHECK(result.has_value(), "worker closed before returning C");
        throttle(decision.worker,
                 static_cast<double>(view.plan->rect.count()));
        HMXP_CHECK(result->element_rows == view.window.rows() &&
                       result->element_cols == view.window.cols(),
                   "returned chunk shape mismatch");
        matrix::ConstView src(result->c.data(), result->element_rows,
                              result->element_cols, result->element_cols);
        matrix::View dst =
            c_.window(view.window.row0, view.window.col0, view.window.rows(),
                      view.window.cols());
        matrix::copy_into(src, dst);
        // The chunk is folded in; recycle its storage for the next send
        // (pool vector or arena slot, per the transport).
        result->c.release_to(*pool_);
        ++chunks_processed_;
        view.plan.reset();
        break;
      }
      case sim::CommKind::kCancel: {
        HMXP_CHECK(view.plan.has_value(), "cancel without a chunk");
        // Revoke by seq: the worker drops its resident chunk iff it
        // still holds this ticket and keeps serving. A result that
        // already shipped is discarded here (if it raced into pending_)
        // or by the stale-seq filters on the receive paths.
        endpoint.send(CancelMessage{view.seq});
        if (pending_[w].has_value()) {
          pending_[w]->c.release_to(*pool_);
          pending_[w].reset();
          ++spec_stats_.stale_results;
        }
        view.plan.reset();
        break;
      }
    }
  }

  /// Stops and reclaims every worker through the transport (join
  /// threads / reap child processes). Idempotent, safe on error paths.
  /// A fleet job owns no transport, so this is a no-op for it -- the
  /// fleet's workers live on to serve the next job.
  void shutdown() noexcept {
    if (owned_transport_ != nullptr) owned_transport_->shutdown();
  }

  /// After shutdown: if any worker failed, its error is the root cause
  /// -- rethrow it (the master's own failure, e.g. a refused send, is
  /// secondary). Errors of workers the master killed on purpose, or
  /// whose failure was tolerated and recovered from, are expected and
  /// stay buried.
  void rethrow_worker_error() {
    if (transport_ == nullptr) return;
    // Fleet mode always tolerates faults: every death this job saw was
    // handled (and reported through the lease hooks), and foreign
    // endpoints are not this job's to inspect.
    if (fleet_ != nullptr) return;
    for (std::size_t w = 0; w < worker_count_; ++w) {
      Endpoint& endpoint = transport_->endpoint(static_cast<int>(w));
      if (!endpoint.error() || endpoint.killed()) continue;
      if (options_.tolerate_faults && failure_handled_[w]) continue;
      std::rethrow_exception(endpoint.error());
    }
  }

  /// Bound on one wait_any: a lease grant or a rejoining TCP worker
  /// arrives without ringing any of the job's workers, and is noticed
  /// at the latest one slice later.
  static constexpr std::chrono::milliseconds kWaitSlice{50};

  sim::Engine mirror_;
  const matrix::Matrix& a_;
  const matrix::Matrix& b_;
  matrix::Matrix& c_;
  // Owned-vs-borrowed pairs: a standalone run owns its pool, transport
  // and calibration; a fleet job borrows all three from the fleet (the
  // owned slots stay empty). Code paths always go through the pointers.
  BufferPool own_pool_;  // shared with workers; outlives them (first)
  ExecutorOptions options_;
  std::size_t worker_count_;
  model::Time blocked_offset_;
  std::unique_ptr<Transport> owned_transport_;
  Transport* transport_ = nullptr;
  BufferPool* pool_ = nullptr;
  std::vector<MasterView> views_;
  std::vector<std::optional<ResultMessage>> pending_;
  std::vector<std::size_t> updates_per_worker_;
  std::vector<platform::SpeedEstimate> own_speed_;
  std::vector<platform::SpeedEstimate>* wall_speed_ = nullptr;
  std::vector<char> failure_handled_;  // fail_worker() already ran
  std::vector<Await> awaits_;          // await_ready's reused wait set
  sim::EngineState rollback_state_;    // reused pre-decision snapshot
  SpeculationStats spec_stats_;
  // Fleet mode only (nullptr / empty otherwise).
  Fleet* fleet_ = nullptr;
  const LeaseHooks* hooks_ = nullptr;
  std::vector<char> leased_;       // holds the lease right now
  std::vector<char> ever_leased_;  // held it at some point this job
  BufferPool::Stats pool_begin_{};
  int workers_failed_ = 0;
  int workers_rejoined_ = 0;
  Clock::time_point run_begin_{};
  std::size_t chunks_processed_ = 0;
};

void check_shapes(const matrix::Partition& partition, const matrix::Matrix& a,
                  const matrix::Matrix& b, const matrix::Matrix& c,
                  const platform::Platform& platform,
                  const ExecutorOptions& options) {
  HMXP_REQUIRE(a.rows() == partition.n_a() && a.cols() == partition.n_ab(),
               "A shape does not match the partition");
  HMXP_REQUIRE(b.rows() == partition.n_ab() && b.cols() == partition.n_b(),
               "B shape does not match the partition");
  HMXP_REQUIRE(c.rows() == partition.n_a() && c.cols() == partition.n_b(),
               "C shape does not match the partition");
  HMXP_REQUIRE(options.compute_slowdown.empty() ||
                   options.compute_slowdown.size() ==
                       static_cast<std::size_t>(platform.size()),
               "slowdown vector must cover every worker");
  for (const int slowdown : options.compute_slowdown)
    HMXP_REQUIRE(slowdown >= 1, "slowdown factors must be >= 1");
}

}  // namespace

ExecutorReport execute_online(sim::Scheduler& scheduler,
                              const platform::Platform& platform,
                              const matrix::Partition& partition,
                              const matrix::Matrix& a, const matrix::Matrix& b,
                              matrix::Matrix& c, const ExecutorOptions& options,
                              std::vector<sim::Decision>* decision_log) {
  check_shapes(partition, a, b, c, platform, options);
  OnlineExecutor executor(platform, partition, a, b, c, options);
  return executor.run(scheduler, decision_log);
}

ExecutorReport execute_on_fleet(sim::Scheduler& scheduler, Fleet& fleet,
                                const matrix::Partition& partition,
                                const matrix::Matrix& a,
                                const matrix::Matrix& b, matrix::Matrix& c,
                                const std::vector<int>& initial_lease,
                                const LeaseHooks& hooks,
                                const FleetJobOptions& job,
                                std::vector<sim::Decision>* decision_log) {
  check_shapes(partition, a, b, c, fleet.platform(), fleet.options());
  // The fleet's arena slots and frame ceilings were sized once at
  // spawn; a job that would ship a larger payload must be rejected at
  // admission, and is a hard error here.
  HMXP_REQUIRE(max_payload_doubles(partition) <= fleet.max_payload_doubles(),
               "job payload exceeds the fleet's sizing ceiling");
  OnlineExecutor executor(fleet, partition, a, b, c, job, initial_lease,
                          hooks);
  return executor.run(scheduler, decision_log);
}

ExecutorReport execute(const platform::Platform& platform,
                       const matrix::Partition& partition,
                       const std::vector<sim::Decision>& decisions,
                       const matrix::Matrix& a, const matrix::Matrix& b,
                       matrix::Matrix& c, const ExecutorOptions& options) {
  sim::ReplayScheduler replay("replay", decisions);
  return execute_online(replay, platform, partition, a, b, c, options);
}

ExecutorReport run_on_data(const std::string& algorithm_name,
                           const platform::Platform& platform,
                           const matrix::Partition& partition,
                           const matrix::Matrix& a, const matrix::Matrix& b,
                           matrix::Matrix& c, const ExecutorOptions& options) {
  const core::Algorithm algorithm = core::algorithm_from_name(algorithm_name);
  std::unique_ptr<sim::Scheduler> scheduler =
      core::make_scheduler(algorithm, platform, partition);
  return execute_online(*scheduler, platform, partition, a, b, c, options);
}

}  // namespace hmxp::runtime
