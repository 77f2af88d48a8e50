// Fault-tolerant wrapper policy: makes any chunk-cycle scheduler
// survive permanent worker loss.
//
// The wrapper shadows the chunk each worker currently holds (it sees
// every decision it returns). When the view reports a worker newly dead
// (FaultSchedule event in the simulator, a dead thread in the online
// runtime), the backend has already returned the lost chunk's blocks to
// the pending set; the wrapper moves its shadow copy onto an orphan
// queue and re-issues it to a survivor ahead of the inner policy's own
// decisions:
//
//   * the re-issue target is the free surviving worker with the best
//     estimated chunk completion under the view's CALIBRATED speeds
//     (EWMA over observed per-step latencies), not the static w_i --
//     on a drifting platform the nominally fastest worker is often the
//     wrong choice;
//   * a chunk sized for the dead worker's memory is re-planned for the
//     target: if it fits, the identical plan is re-sent (the recompute
//     is bit-for-bit the original work); otherwise the rectangle splits
//     along its longer side until every piece fits, preserving the
//     layout family (double-buffered / Toledo / max-reuse) and the
//     k-step structure. Under the paper's one-k-per-step layout the
//     recovered product is bitwise identical to the fault-free one
//     whoever adopts the blocks; Toledo's beta_i k-grouping is owner-
//     dependent, so re-owned blocks may reassociate the k sum by ulps;
//   * once the re-issued SendC lands, the INNER policy naturally feeds
//     and collects the chunk -- every wrapped policy derives SendAB and
//     RecvC from the view's per-worker progress, not from private
//     bookkeeping, so recovery needs no inner-policy cooperation.
//
// Registered for the whole demand-driven family: FT-ODDOML, FT-OMMOML
// (over the calibrated min-min), FT-ORROML, FT-BMM. Policies with a
// frozen decision log (Het's replay) cannot be wrapped: a prerecorded
// schedule has no way to re-route work.
#pragma once

#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "sim/scheduler.hpp"

namespace hmxp::sched {

class FaultTolerantScheduler final : public sim::Scheduler {
 public:
  FaultTolerantScheduler(std::string name,
                         std::unique_ptr<sim::Scheduler> inner);

  std::string name() const override { return name_; }
  sim::Decision next(const sim::ExecutionView& view) override;

  /// Chunks currently waiting for a survivor (for tests/diagnostics).
  std::size_t orphan_count() const { return orphans_.size(); }

 private:
  /// Shadow of a chunk handed to a worker, plus the worker's
  /// chunks_returned and chunks_lost counts at assign time: the chunk is
  /// confirmed done only once the view's returned count moves past it
  /// (a returned RecvC decision proves nothing -- the online backend
  /// rolls a decision back when the worker dies under its real half),
  /// and confirmed lost once the lost count does -- even when the worker
  /// died and was re-admitted between two decisions, so that this
  /// wrapper never saw it dead.
  struct Shadow {
    sim::ChunkPlan plan;
    model::BlockCount returned_before = 0;
    model::BlockCount lost_before = 0;
  };

  std::string name_;
  std::unique_ptr<sim::Scheduler> inner_;
  std::vector<std::optional<Shadow>> in_flight_;  // lazily sized
  std::vector<bool> known_alive_;
  std::deque<sim::ChunkPlan> orphans_;

  void absorb_failures(const sim::ExecutionView& view);
  std::optional<sim::Decision> reissue(const sim::ExecutionView& view);
  sim::Decision track(const sim::ExecutionView& view, sim::Decision decision);
};

/// Wraps `inner` (takes ownership) under the given display name.
std::unique_ptr<sim::Scheduler> make_fault_tolerant(
    std::string name, std::unique_ptr<sim::Scheduler> inner);

/// Re-plans `plan` to fit a worker with `memory` block buffers:
/// returns the plan unchanged when it already fits, otherwise splits the
/// rectangle (longer side first) until every piece fits, preserving the
/// layout family and k-step structure. Exposed for tests.
std::vector<sim::ChunkPlan> replan_for_memory(const sim::ChunkPlan& plan,
                                              model::BlockCount memory);

}  // namespace hmxp::sched
