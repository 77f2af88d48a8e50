#include "runtime/worker_main.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <stdexcept>
#include <string>
#include <variant>
#include <vector>

#include "matrix/gemm.hpp"
#include "runtime/executor.hpp"
#include "util/check.hpp"

namespace hmxp::runtime {

WorkerContext make_worker_context(
    const ExecutorOptions& options, int index,
    std::chrono::steady_clock::time_point run_begin) {
  WorkerContext context;
  context.index = index;
  context.base_slowdown =
      options.compute_slowdown.empty()
          ? 1
          : options.compute_slowdown[static_cast<std::size_t>(index)];
  context.perturbation = &options.perturbation;
  context.faults = &options.faults;
  context.fault_hook = options.fault_hook;
  context.run_begin = run_begin;
  return context;
}

namespace {

using Clock = std::chrono::steady_clock;

/// One worker's protocol state machine: at most one resident chunk,
/// steps consumed strictly in order.
class WorkerLoop {
 public:
  WorkerLoop(const WorkerContext& context, WorkerPort& port, BufferPool& pool)
      : context_(context), port_(port), pool_(pool) {}

  void run() {
    while (auto message = next_message()) {
      check_scheduled_fault();
      if (auto* chunk = std::get_if<ChunkMessage>(&*message)) {
        HMXP_CHECK(!chunk_.has_value(), "worker received chunk mid-chunk");
        chunk_ = std::move(*chunk);
        steps_done_ = 0;
        step_seconds_.clear();
        revoked_ = false;
      } else if (auto* cancel = std::get_if<CancelMessage>(&*message)) {
        // Non-fatal revocation: drop the named chunk and keep serving.
        // A mismatched seq means the result already shipped (the master
        // discards it by seq); nothing to do here.
        if (chunk_.has_value() && chunk_->seq == cancel->seq) drop_chunk();
      } else {
        OperandMessage operands =
            std::move(std::get<OperandMessage>(*message));
        // Before paying for a step, scan everything the master already
        // queued for a revocation of the resident chunk: each further
        // step of a cancelled chunk is dead work whose result the
        // master would discard by seq anyway.
        if (cancel_queued()) drop_chunk();
        if (!chunk_.has_value()) {
          HMXP_CHECK(revoked_, "operands before chunk");
          // A stale step of the revoked chunk: recycle, never compute.
          operands.a.release_to(pool_);
          operands.b.release_to(pool_);
        } else {
          process(std::move(operands));
        }
      }
    }
  }

  /// A dying worker hands the pool back what it can (its resident C
  /// copy); in-flight locals are freed by unwinding instead.
  void surrender_chunk() {
    if (chunk_.has_value()) {
      chunk_->c.release_to(pool_);
      chunk_.reset();
    }
  }

 private:
  /// Queued messages drained by the cancel lookahead, replayed in order
  /// before the port is read again.
  std::optional<WorkerMessage> next_message() {
    if (!lookahead_.empty()) {
      WorkerMessage message = std::move(lookahead_.front());
      lookahead_.pop_front();
      return message;
    }
    return port_.receive();
  }

  /// Drains whatever the port has buffered and reports whether a cancel
  /// naming the RESIDENT chunk is among it. Drained messages keep their
  /// order through lookahead_, so the protocol stream is untouched --
  /// the matched cancel itself degrades to a no-op once dequeued.
  bool cancel_queued() {
    if (!chunk_.has_value()) return false;
    while (auto extra = port_.try_receive())
      lookahead_.push_back(std::move(*extra));
    for (const WorkerMessage& queued : lookahead_) {
      const auto* cancel = std::get_if<CancelMessage>(&queued);
      if (cancel != nullptr && cancel->seq == chunk_->seq) return true;
    }
    return false;
  }

  /// Revocation: the resident chunk's C copy goes back to the pool and
  /// in-flight operand steps that still name it are discarded, not
  /// computed, until the next ChunkMessage re-arms the worker.
  void drop_chunk() {
    steps_done_ = 0;
    step_seconds_.clear();
    surrender_chunk();
    revoked_ = true;
  }

  /// Wall-clock fault schedule: the worker dies for good once its event
  /// time passes, whatever it was about to do.
  void check_scheduled_fault() const {
    if (context_.faults == nullptr || context_.faults->empty()) return;
    const double elapsed = std::chrono::duration<double>(
                               Clock::now() - context_.run_begin)
                               .count();
    if (context_.faults->dead(context_.index, elapsed))
      throw std::runtime_error("scheduled fault: worker " +
                               std::to_string(context_.index) + " died at t=" +
                               std::to_string(elapsed));
  }

  /// Compute repetitions in force right now: the static per-worker
  /// factor times the dynamic perturbation factor at the current wall
  /// offset -- the platform really changes under the master mid-run.
  int current_reps() const {
    if (context_.perturbation == nullptr || context_.perturbation->empty())
      return context_.base_slowdown;
    const double elapsed = std::chrono::duration<double>(
                               Clock::now() - context_.run_begin)
                               .count();
    const double factor =
        context_.perturbation->factor(context_.index, elapsed);
    return std::max(
        1, static_cast<int>(std::lround(
               static_cast<double>(context_.base_slowdown) * factor)));
  }

  void process(OperandMessage&& operands) {
    HMXP_CHECK(chunk_.has_value(), "operands before chunk");
    ChunkMessage& chunk = *chunk_;
    HMXP_CHECK(operands.step == steps_done_, "operand step out of order");
    // The hook runs INSIDE the timed window: a hook that stalls (or
    // throws) emulates the worker itself degrading, so its latency must
    // reach the master's calibration loop like any real slowdown.
    const auto step_begin = Clock::now();
    if (context_.fault_hook) context_.fault_hook(context_.index, operands.step);
    const std::size_t rows = chunk.element_rows;
    const std::size_t cols = chunk.element_cols;
    const std::size_t kk = operands.k_elems;
    // A window the master lent (thread workers) keeps its leading
    // dimension: the micro-kernel packs straight from A and B.
    const matrix::ConstView a = operands.a.view(rows, kk);
    const matrix::ConstView b = operands.b.view(kk, cols);
    matrix::View c(chunk.c.data(), rows, cols, cols);
    matrix::gemm_auto(a, b, c);

    // Emulated slowdown: redo the same product into scratch, discarding
    // the result, exactly like the paper's artificial deceleration.
    const int reps = current_reps();
    if (reps > 1) {
      std::vector<double> scratch = pool_.acquire(rows * cols);
      matrix::View sink(scratch.data(), rows, cols, cols);
      for (int rep = 1; rep < reps; ++rep) matrix::gemm_auto(a, b, sink);
      pool_.release(std::move(scratch));
    }
    // The step's measured latency (repetitions included): what the
    // master's calibration loop gets to see.
    step_seconds_.push_back(
        std::chrono::duration<double>(Clock::now() - step_begin).count());

    // Operand buffers are consumed: hand their storage back for reuse
    // (arena slots return to the arena, pool vectors to the pool, lent
    // windows' loans to the master) BEFORE the result ships, so a
    // master that has every result back has every loan back too.
    operands.a.release_to(pool_);
    operands.b.release_to(pool_);

    ++steps_done_;
    if (steps_done_ == chunk.plan.steps.size()) {
      ResultMessage result;
      result.plan = chunk.plan;
      result.element_rows = rows;
      result.element_cols = cols;
      result.c = std::move(chunk.c);
      result.updates_performed = steps_done_;
      result.step_seconds = std::move(step_seconds_);
      result.seq = chunk.seq;
      step_seconds_.clear();
      chunk_.reset();
      port_.send(std::move(result));
    }
  }

  const WorkerContext& context_;
  WorkerPort& port_;
  BufferPool& pool_;
  std::optional<ChunkMessage> chunk_;
  std::size_t steps_done_ = 0;
  std::vector<double> step_seconds_;
  std::deque<WorkerMessage> lookahead_;
  bool revoked_ = false;  // operands may legitimately arrive chunk-less
};

}  // namespace

void worker_main(const WorkerContext& context, WorkerPort& port,
                 BufferPool& pool) {
  WorkerLoop loop(context, port, pool);
  try {
    loop.run();
    // A clean port close can still leave a resident chunk (the master
    // decommissioned the worker mid-chunk): its C copy must go back to
    // the pool too, or the pool's accounting leaks the buffer.
    loop.surrender_chunk();
  } catch (...) {
    loop.surrender_chunk();
    throw;
  }
}

}  // namespace hmxp::runtime
