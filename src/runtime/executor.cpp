#include "runtime/executor.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <exception>
#include <numeric>
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
/// Worker processes never touch the master's matrices -- the windows
/// the master lends are read in the master, by the stream encoder or
/// the shm packer, and reach a child only as frame bytes or arena
/// slots -- yet fork() still copies the page tables of those megabytes
/// and marks every writable page copy-on-write. The master then takes
/// a soft fault on each C page it merges results into, every run. MADV_DONTFORK keeps the spans out of the children
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

/// The event-driven master of one job on a Fleet: implements
/// ExecutionView over the workers the job leases, behind the fleet's
/// data-plane Transport (threads or forked processes -- the master
/// never knows which). A standalone run is a one-job fleet that leases
/// every worker (execute_online). Scheduler-visible bookkeeping (port
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
  /// The mirror spans the FULL fleet platform; every worker outside
  /// `initial_lease` starts marked failed (an FT-* scheduler schedules
  /// around it) and its endpoint is NEVER touched -- another job may be
  /// driving it concurrently. Grants arriving through `hooks` hot-join
  /// idle.
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
        fleet_(fleet),
        transport_(fleet.transport()),
        pool_(fleet.pool()),
        speeds_(fleet.speeds()),
        hooks_(hooks),
        options_(fleet.options()),
        worker_count_(static_cast<std::size_t>(fleet.size())),
        blocked_offset_(blocked_offset(fleet.platform(), partition)),
        views_(worker_count_),
        pending_(worker_count_),
        updates_per_worker_(worker_count_, 0),
        hold_(worker_count_, Hold::kNever) {
    options_.verify = job.verify;
    options_.tolerance = job.tolerance;
    options_.record_trace = job.record_trace;
    for (const int w : initial_lease) {
      HMXP_REQUIRE(w >= 0 && static_cast<std::size_t>(w) < worker_count_,
                   "lease index out of range");
      HMXP_REQUIRE(fleet.alive(w), "cannot lease a dead worker");
      hold_[static_cast<std::size_t>(w)] = Hold::kHeld;
    }
    for (std::size_t w = 0; w < worker_count_; ++w)
      if (hold_[w] != Hold::kHeld) mirror_.fail_worker(static_cast<int>(w));
  }

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
    return transport_.endpoint(worker).can_send() ? start
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

  /// Marks a worker this job holds failed and reclaims everything it
  /// held: the mirror returns its in-flight chunk to the pending set,
  /// queued messages hand their payload buffers back to the pool, and a
  /// still-running worker is decommissioned through its endpoint (the
  /// exit error that may cause is expected and never rethrown). The
  /// lease ends with it: the fleet marks the worker dead and the lease
  /// manager stops offering it. Idempotent, and a no-op on a worker the
  /// job does not hold; also the master's internal path when it detects
  /// a dead worker.
  void fail_worker(int worker) override {
    const auto w = static_cast<std::size_t>(worker);
    HMXP_REQUIRE(worker >= 0 && w < worker_count_,
                 "worker index out of range");
    if (hold_[w] != Hold::kHeld) return;
    hold_[w] = Hold::kDead;
    ++workers_failed_;
    Endpoint& endpoint = transport_.endpoint(worker);
    if (!endpoint.failed()) endpoint.kill();
    // The pending result FIRST: its payload may be an arena slot the
    // dead worker handed over, and drain()'s crash reclamation below
    // frees every slot still tagged with the worker -- releasing after
    // would double-free a slot another worker may already hold.
    if (pending_[w].has_value()) {
      pending_[w]->c.release_to(pool_);
      pending_[w].reset();
    }
    endpoint.drain(pool_);
    views_[w].plan.reset();
    mirror_.fail_worker(worker);
    publish_drift(w);
    fleet_.mark_dead(worker);
    if (hooks_.worker_dead) hooks_.worker_dead(worker);
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
    if (hold_[w] != Hold::kHeld) return fleet_.drift(worker);
    return speeds_[w].drift();
  }

  // ----- the master loop -----
  ExecutorReport run(sim::Scheduler& scheduler,
                     std::vector<sim::Decision>* decision_log) {
    run_begin_ = Clock::now();
    matrix::Matrix reference;
    if (options_.verify) reference = c_;  // C_initial; product added at end
    pool_begin_ = pool_.stats();
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
                hold_[w] == Hold::kHeld &&
                transport_.endpoint(decision.worker).failed() &&
                !transport_.endpoint(decision.worker).killed()) {
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
      // The job failed mid-flight. A worker it still holds may be
      // mid-chunk -- its endpoint is not at a message boundary, so
      // handing it to another job would corrupt that job's stream -- or
      // may still read a window this job lent. Kill what we hold; the
      // fleet shrinks, and the loan wait ends once the killed workers
      // let go. The root cause is read before the kills.
      const std::exception_ptr cause = worker_error();
      for (std::size_t w = 0; w < worker_count_; ++w) {
        try {
          fail_worker(static_cast<int>(w));
        } catch (...) {  // best-effort teardown; original error wins
        }
      }
      if (cause) std::rethrow_exception(cause);
      throw;
    }
    release_remaining_leases();

    ExecutorReport report;
    report.chunks_processed = chunks_processed_;
    report.updates_per_worker = updates_per_worker_;
    for (const std::size_t updates : updates_per_worker_)
      report.updates_performed += updates;
    report.workers_failed = workers_failed_;
    report.workers_rejoined = workers_rejoined_;
    // Every lease has ended, so this reads the drift each worker's last
    // job published, never an estimate another job may be updating.
    for (std::size_t w = 0; w < worker_count_; ++w)
      report.observed_drift.push_back(observed_drift(static_cast<int>(w)));
    report.result =
        sim::collect_result(scheduler.name(), mirror_, executed);
    // The mirror marks failed every worker the job does not hold; only
    // the ones that died under it, and did not come back, were lost.
    report.result.workers_failed =
        static_cast<int>(std::count(hold_.begin(), hold_.end(), Hold::kDead));
    report.buffer_pool = pool_.stats();
    report.buffer_pool_delta = pool_begin_.delta_to(report.buffer_pool);
    report.speculation = spec_stats_;
    report.speculation.wasted_updates =
        static_cast<std::size_t>(mirror_.snapshot().wasted_updates);
    report.transport = transport_.name();
    for (const Hold hold : hold_)
      report.fleet_workers_used += hold != Hold::kNever;
    report.kernel_variant = matrix::packed_kernel_variant();
    // Mirrors the hello handshake: a blocking only when the packed
    // tier actually ran; zeros document "no blocking consumed".
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
  /// Where a fleet worker stands with this job. Only a held worker's
  /// endpoint is the job's to touch; every other worker is dead on the
  /// job's mirror.
  enum class Hold : char {
    kNever,     // not granted to this job (yet)
    kHeld,      // leased to this job right now
    kReleased,  // handed back to the lease manager, idle
    kDead,      // died while this job held it
  };

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
        if (hold_[w] != Hold::kHeld) continue;
        const int worker = static_cast<int>(w);
        const bool result = mirror_.progress(worker).all_steps_received();
        if (result ? pending_[w].has_value()
                   : transport_.endpoint(worker).can_send())
          return;
        awaits_.push_back(Await{worker, result});
      }
      if (awaits_.empty()) return;  // nothing to wait on: decide
      transport_.wait_any(awaits_, kWaitSlice);
    }
  }

  /// Non-blocking sweep of every worker: results that actually arrived
  /// become visible to the scheduler (earliest_start above) before the
  /// next decision, their measured step latencies feed the calibration,
  /// and dead workers are detected EAGERLY -- a worker that dies
  /// between steps surfaces here, not whenever the master next happens
  /// to touch its endpoint (which could be never).
  void drain_completions() {
    lease_sweep();
    for (std::size_t w = 0; w < worker_count_; ++w) {
      // NEVER touch an endpoint this job does not hold: another job's
      // master loop may be mid-protocol on it right now.
      if (hold_[w] != Hold::kHeld) continue;
      Endpoint& endpoint = transport_.endpoint(static_cast<int>(w));
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
          pending_[w]->c.release_to(pool_);
          pending_[w].reset();
          ++spec_stats_.stale_results;
        }
        // try_recv is also the failure pump (a dead process surfaces as
        // an EOF while reading): re-check so the death is handled THIS
        // sweep, not a decision later.
        if (endpoint.failed()) {
          if (!options_.tolerate_faults)
            throw std::runtime_error("worker failed");
          fail_worker(static_cast<int>(w));
        }
      }
    }
    starvation_guard();
  }

  // ----- lease plumbing -----

  int held() const {
    return static_cast<int>(std::count(hold_.begin(), hold_.end(),
                                       Hold::kHeld));
  }

  /// A worker with no resident chunk, no undrained result and no plan:
  /// its endpoint is at a message boundary, so the lease can change
  /// hands without corrupting either job's protocol stream.
  bool worker_idle(std::size_t w) const {
    return !views_[w].plan.has_value() && !pending_[w].has_value() &&
           !mirror_.progress(static_cast<int>(w)).has_chunk;
  }

  /// Hot-join: a granted worker is alive and idle on the mirror, and
  /// the FT-* scheduler hands it orphans or fresh territory on its next
  /// decision. A grant of a worker that died under this job is a
  /// rejoin: it came back (Fleet::readmit).
  void apply_grants(const std::vector<int>& grants) {
    for (const int g : grants) {
      const auto w = static_cast<std::size_t>(g);
      HMXP_REQUIRE(g >= 0 && w < worker_count_, "grant index out of range");
      if (hold_[w] == Hold::kHeld) continue;
      if (hold_[w] == Hold::kDead) ++workers_rejoined_;
      hold_[w] = Hold::kHeld;
      mirror_.revive_worker(g);
    }
  }

  void release_lease(std::size_t w) {
    hold_[w] = Hold::kReleased;  // its endpoint is not ours any more
    views_[w].plan.reset();
    mirror_.fail_worker(static_cast<int>(w));
    publish_drift(w);  // before the next job may touch the estimate
    if (hooks_.release) hooks_.release(static_cast<int>(w));
  }

  /// Chunk-boundary rebalancing, run before every scheduling decision:
  /// pick up any workers granted since the last sweep, then -- if
  /// anyone takes workers back -- shed idle workers we no longer need,
  /// either because all blocks are assigned (tail drain: a finished
  /// worker immediately starts the NEXT job's prologue, the pipelined
  /// epilogue/prologue overlap) or because we hold more than our fair
  /// share.
  void lease_sweep() {
    if (hooks_.poll_grants) apply_grants(hooks_.poll_grants());
    if (!hooks_.release) return;  // nobody takes a worker back: keep all
    const bool tail = mirror_.unassigned_blocks() == 0;
    int holding = held();
    const int target =
        hooks_.target ? std::max(1, hooks_.target()) : holding;
    for (std::size_t w = 0; w < worker_count_ && holding > 0; ++w) {
      if (hold_[w] != Hold::kHeld || !worker_idle(w)) continue;
      if (!tail && holding <= target) break;  // keep our fair share busy
      release_lease(w);
      --holding;
    }
  }

  /// Runs after the endpoint sweep (which is where deaths surface): if
  /// this job lost its last worker mid-run and a grant can come, block
  /// on it rather than let the FT scheduler conclude the run is
  /// unrecoverable. Without a grant source, the scheduler concludes.
  void starvation_guard() {
    if (!hooks_.wait_grant) return;
    while (!mirror_.all_work_done() && held() == 0) {
      const std::vector<int> grants = hooks_.wait_grant();
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
      if (hold_[w] == Hold::kHeld) release_lease(w);
  }

  /// Publishes a worker's drift for lock-free readers (the admission
  /// controller, other jobs' reports) as this job's lease on it ends:
  /// the SpeedEstimate itself is only safe to read under the lease.
  void publish_drift(std::size_t w) {
    fleet_.publish_drift(static_cast<int>(w), speeds_[w].drift());
  }

  /// In strict mode a held worker that died on its own is the root
  /// cause of any failure -- its error beats the master's own (a
  /// refused send, a worker that closed before returning C). Under
  /// fault tolerance deaths are survivable, so the master's error
  /// stands; errors of workers the master killed are expected.
  std::exception_ptr worker_error() {
    if (options_.tolerate_faults) return nullptr;
    for (std::size_t w = 0; w < worker_count_; ++w) {
      if (hold_[w] != Hold::kHeld) continue;
      const Endpoint& endpoint = transport_.endpoint(static_cast<int>(w));
      if (endpoint.failed() && !endpoint.killed()) return endpoint.error();
    }
    return nullptr;
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
      speeds_[w].observe(seconds / updates, options_.calibration.alpha);
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

  /// The element window [row0, row1) x [col0, col1) of `source`, lent
  /// for the message that carries it: the endpoint's send decides
  /// whether it travels as is, encoded or packed (transport.hpp).
  Payload lend(const matrix::Matrix& source, std::size_t row0,
               std::size_t row1, std::size_t col0, std::size_t col1) {
    return Payload::lend(
        source.window(row0, col0, row1 - row0, col1 - col0), loans_);
  }

  void execute_real(const sim::Decision& decision) {
    const auto w = static_cast<std::size_t>(decision.worker);
    MasterView& view = views_[w];
    Endpoint& endpoint = transport_.endpoint(decision.worker);
    const matrix::Partition& part = mirror_.partition();
    const std::size_t q = part.q();

    switch (decision.comm) {
      case sim::CommKind::kSendC: {
        const Window window = c_window(part, decision.chunk.rect);
        ChunkMessage message;
        message.plan = decision.chunk;
        message.element_rows = window.rows();
        message.element_cols = window.cols();
        message.c = lend(c_, window.row0, window.row1, window.col0,
                         window.col1);
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
        message.a = lend(a_, view.window.row0, view.window.row1, ek0, ek1);
        message.b = lend(b_, ek0, ek1, view.window.col0, view.window.col1);
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
            result->c.release_to(pool_);
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
        result->c.release_to(pool_);
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
          pending_[w]->c.release_to(pool_);
          pending_[w].reset();
          ++spec_stats_.stale_results;
        }
        view.plan.reset();
        break;
      }
    }
  }

  /// Bound on one wait_any: a lease grant or a rejoining TCP worker
  /// arrives without ringing any of the job's workers, and is noticed
  /// at the latest one slice later.
  static constexpr std::chrono::milliseconds kWaitSlice{50};

  // Declared first, so destroyed last: the windows this run lent over
  // A, B and C. A thread worker a cancel or a kill left mid-step may
  // still read one after run() is done, and this count's destructor
  // holds execute_on_fleet (and so execute_online) until it is back --
  // the loan rule (payload.hpp) -- so the caller may free A, B and C
  // the moment either returns or throws.
  Loans loans_;
  sim::Engine mirror_;
  const matrix::Matrix& a_;
  const matrix::Matrix& b_;
  matrix::Matrix& c_;
  Fleet& fleet_;
  Transport& transport_;
  BufferPool& pool_;
  std::vector<platform::SpeedEstimate>& speeds_;
  const LeaseHooks& hooks_;
  ExecutorOptions options_;
  std::size_t worker_count_;
  model::Time blocked_offset_;
  std::vector<MasterView> views_;
  std::vector<std::optional<ResultMessage>> pending_;
  std::vector<std::size_t> updates_per_worker_;
  std::vector<Hold> hold_;
  std::vector<Await> awaits_;        // await_ready's reused wait set
  sim::EngineState rollback_state_;  // reused pre-decision snapshot
  SpeculationStats spec_stats_;
  BufferPool::Stats pool_begin_{};
  int workers_failed_ = 0;
  int workers_rejoined_ = 0;
  Clock::time_point run_begin_{};
  std::size_t chunks_processed_ = 0;
};

void check_shapes(const matrix::Partition& partition, const matrix::Matrix& a,
                  const matrix::Matrix& b, const matrix::Matrix& c) {
  HMXP_REQUIRE(a.rows() == partition.n_a() && a.cols() == partition.n_ab(),
               "A shape does not match the partition");
  HMXP_REQUIRE(b.rows() == partition.n_ab() && b.cols() == partition.n_b(),
               "B shape does not match the partition");
  HMXP_REQUIRE(c.rows() == partition.n_a() && c.cols() == partition.n_b(),
               "C shape does not match the partition");
}

double seconds_since(Clock::time_point begin) {
  return std::chrono::duration<double>(Clock::now() - begin).count();
}

}  // namespace

ExecutorReport execute_online(sim::Scheduler& scheduler,
                              const platform::Platform& platform,
                              const matrix::Partition& partition,
                              const matrix::Matrix& a, const matrix::Matrix& b,
                              matrix::Matrix& c, const ExecutorOptions& options,
                              std::vector<sim::Decision>* decision_log) {
  check_shapes(partition, a, b, c);
  const Clock::time_point begin = Clock::now();
  Fleet fleet = [&] {
    // Forked workers never see the master's matrices (lent windows are
    // encoded or packed in the master), so keep those pages out of the
    // forks entirely -- see ForkVisibilityGuard.
    const ForkVisibilityGuard fork_guard(
        options.transport != TransportKind::kThread, a, b, c);
    return Fleet(platform, options, max_payload_doubles(partition));
  }();
  const double spawn_seconds = seconds_since(begin);

  // The one job leases every worker and keeps it to the end (no
  // release hook); a worker that reconnects rejoins through the grant
  // poll, and a job that lost every worker lets its scheduler conclude
  // (no wait_grant hook).
  std::vector<int> everyone(static_cast<std::size_t>(fleet.size()));
  std::iota(everyone.begin(), everyone.end(), 0);
  LeaseHooks hooks;
  hooks.poll_grants = [&fleet] { return fleet.readmit(); };
  const FleetJobOptions job{options.verify, options.tolerance,
                            options.record_trace};
  ExecutorReport report = execute_on_fleet(scheduler, fleet, partition, a, b,
                                           c, everyone, hooks, job,
                                           decision_log);
  const Clock::time_point stop = Clock::now();
  fleet.shutdown();
  // Read after shutdown: arena_leaked_slots counts what is still held.
  report.transport_stats = fleet.transport_stats();
  report.wall_seconds += spawn_seconds + seconds_since(stop);
  return report;
}

ExecutorReport execute_on_fleet(sim::Scheduler& scheduler, Fleet& fleet,
                                const matrix::Partition& partition,
                                const matrix::Matrix& a,
                                const matrix::Matrix& b, matrix::Matrix& c,
                                const std::vector<int>& initial_lease,
                                const LeaseHooks& hooks,
                                const FleetJobOptions& job,
                                std::vector<sim::Decision>* decision_log) {
  check_shapes(partition, a, b, c);
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
