#include "sched/fault_tolerant.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "sched/demand_driven.hpp"
#include "sched/min_min.hpp"
#include "sched/registry.hpp"
#include "sched/round_robin.hpp"
#include "util/check.hpp"

namespace hmxp::sched {

namespace {
constexpr model::Time kNever = std::numeric_limits<model::Time>::infinity();

/// Rebuilds a plan of `original`'s layout family over `rect`, keeping
/// the k-step structure (step count for the paper's layout, k-grouping
/// width for Toledo's) so a re-assigned chunk performs bit-for-bit the
/// same per-element accumulation as the lost one.
sim::ChunkPlan rebuild(const sim::ChunkPlan& original,
                       const matrix::BlockRect& rect) {
  HMXP_CHECK(!original.steps.empty(), "orphan plan has no steps");
  const std::size_t t = original.steps.back().k_end;
  if (original.peak_override > 0) return sim::make_max_reuse_chunk(rect, t);
  if (original.prefetch_depth == 0) {
    std::size_t beta = 0;
    for (const sim::StepPlan& step : original.steps)
      beta = std::max(beta, step.k_end - step.k_begin);
    return sim::make_toledo_chunk(rect, t,
                                  static_cast<model::BlockCount>(beta));
  }
  return sim::make_double_buffered_chunk(rect, t);
}

void split_to_fit(const sim::ChunkPlan& plan, model::BlockCount memory,
                  std::vector<sim::ChunkPlan>& out) {
  if (plan.peak_buffers() <= memory) {
    out.push_back(plan);
    return;
  }
  const matrix::BlockRect& rect = plan.rect;
  HMXP_REQUIRE(rect.rows() > 1 || rect.cols() > 1,
               "orphaned chunk cannot fit the target worker's memory");
  matrix::BlockRect first = rect;
  matrix::BlockRect second = rect;
  if (rect.rows() >= rect.cols()) {
    const std::size_t mid = rect.i0 + rect.rows() / 2;
    first.i1 = mid;
    second.i0 = mid;
  } else {
    const std::size_t mid = rect.j0 + rect.cols() / 2;
    first.j1 = mid;
    second.j0 = mid;
  }
  split_to_fit(rebuild(plan, first), memory, out);
  split_to_fit(rebuild(plan, second), memory, out);
}

}  // namespace

std::vector<sim::ChunkPlan> replan_for_memory(const sim::ChunkPlan& plan,
                                              model::BlockCount memory) {
  std::vector<sim::ChunkPlan> pieces;
  split_to_fit(plan, memory, pieces);
  return pieces;
}

FaultTolerantScheduler::FaultTolerantScheduler(
    std::string name, std::unique_ptr<sim::Scheduler> inner)
    : name_(std::move(name)), inner_(std::move(inner)) {
  HMXP_REQUIRE(inner_ != nullptr, "fault-tolerant wrapper needs a policy");
}

void FaultTolerantScheduler::absorb_failures(const sim::ExecutionView& view) {
  const auto workers = static_cast<std::size_t>(view.worker_count());
  if (known_alive_.size() != workers) {
    known_alive_.assign(workers, true);
    in_flight_.assign(workers, std::nullopt);
  }
  for (std::size_t w = 0; w < workers; ++w) {
    // Confirm completions and losses from the view's ground truth: the
    // shadow clears once the worker's returned-chunk count moved past
    // its assign-time value, and becomes an orphan once its lost-chunk
    // count did.
    const sim::WorkerProgress& progress = view.progress(static_cast<int>(w));
    if (in_flight_[w].has_value() &&
        progress.chunks_returned > in_flight_[w]->returned_before)
      in_flight_[w].reset();
    if (in_flight_[w].has_value() &&
        progress.chunks_lost > in_flight_[w]->lost_before) {
      orphans_.push_back(std::move(in_flight_[w]->plan));
      in_flight_[w].reset();
    }
    if (!known_alive_[w]) {
      // A worker can come BACK (TCP reconnect re-admission): re-arm the
      // death detector, or a second loss of the same worker would slip
      // by with its in-flight chunk never orphaned.
      if (view.alive(static_cast<int>(w))) known_alive_[w] = true;
      continue;
    }
    if (view.alive(static_cast<int>(w))) continue;
    known_alive_[w] = false;
    if (in_flight_[w].has_value()) {
      orphans_.push_back(std::move(in_flight_[w]->plan));
      in_flight_[w].reset();
    }
  }
  if (view.alive_count() == 0 &&
      (!orphans_.empty() || !view.all_work_done()))
    throw std::runtime_error(
        "fault tolerance exhausted: every worker failed with work pending");
}

std::optional<sim::Decision> FaultTolerantScheduler::reissue(
    const sim::ExecutionView& view) {
  if (orphans_.empty()) return std::nullopt;

  // A dead worker's chunk may not be lost at all: a speculation wrapper
  // can have duplicated it, and the surviving twin inherited sole
  // ownership when the owner died. Such a rectangle is still fully
  // assigned on the view, and re-issuing it would double-assign its C
  // blocks -- drop those orphans (backends without coverage
  // introspection report rect_assigned() == false and keep re-issuing).
  while (!orphans_.empty() && view.rect_assigned(orphans_.front().rect))
    orphans_.pop_front();
  if (orphans_.empty()) return std::nullopt;

  // Best survivor to adopt the chunk: free, alive, and minimal
  // estimated completion under the CALIBRATED speeds -- a worker that
  // drifted slow adopts orphans last, whatever its static w_i says.
  const sim::ChunkPlan& orphan = orphans_.front();
  const double updates = static_cast<double>(orphan.total_updates());
  int target = -1;
  model::Time best_finish = kNever;
  for (int worker = 0; worker < view.worker_count(); ++worker) {
    if (!view.alive(worker) || view.progress(worker).has_chunk) continue;
    const model::Time start =
        view.earliest_start(worker, sim::CommKind::kSendC);
    if (start >= kNever) continue;
    const platform::WorkerSpec& spec = view.platform().worker(worker);
    const model::Time finish =
        start +
        2.0 * static_cast<double>(orphan.rect.count()) * spec.c +  // C in+out
        updates * view.calibrated_w(worker);
    if (finish < best_finish) {
      best_finish = finish;
      target = worker;
    }
  }
  if (target < 0) return std::nullopt;  // every survivor is busy; wait

  std::vector<sim::ChunkPlan> pieces =
      replan_for_memory(orphan, view.platform().worker(target).m);
  orphans_.pop_front();
  HMXP_CHECK(!pieces.empty(), "re-planning produced no chunks");
  // Later pieces go back to the queue head, preserving re-issue order.
  for (std::size_t i = pieces.size(); i > 1; --i)
    orphans_.push_front(std::move(pieces[i - 1]));
  return sim::Decision::send_chunk(target, std::move(pieces.front()));
}

sim::Decision FaultTolerantScheduler::track(const sim::ExecutionView& view,
                                            sim::Decision decision) {
  if (decision.kind == sim::Decision::Kind::kComm &&
      decision.comm == sim::CommKind::kSendC) {
    const auto w = static_cast<std::size_t>(decision.worker);
    const sim::WorkerProgress& progress = view.progress(decision.worker);
    in_flight_[w] =
        Shadow{decision.chunk, progress.chunks_returned, progress.chunks_lost};
  }
  return decision;
}

sim::Decision FaultTolerantScheduler::next(const sim::ExecutionView& view) {
  absorb_failures(view);
  if (std::optional<sim::Decision> rescue = reissue(view))
    return track(view, std::move(*rescue));
  return track(view, inner_->next(view));
}

std::unique_ptr<sim::Scheduler> make_fault_tolerant(
    std::string name, std::unique_ptr<sim::Scheduler> inner) {
  return std::make_unique<FaultTolerantScheduler>(std::move(name),
                                                  std::move(inner));
}

// Self-registrations: the demand-driven family wrapped fault-tolerant.
// FT-OMMOML wraps the CALIBRATED min-min, so the unreliable scenario
// gets both recovery and speed adaptation from one registry name.

HMXP_REGISTER_ALGORITHM(
    ft_oddoml, "FT-ODDOML", "fault-tolerant demand-driven (re-assigns)", 10,
    [](const platform::Platform& platform, const matrix::Partition& partition,
       HetSelection*) -> std::unique_ptr<sim::Scheduler> {
      return make_fault_tolerant(
          "FT-ODDOML", std::make_unique<DemandDrivenScheduler>(
                           make_oddoml(platform, partition)));
    });

HMXP_REGISTER_ALGORITHM(
    ft_ommoml, "FT-OMMOML",
    "fault-tolerant calibrated min-min (re-assigns, adapts)", 11,
    [](const platform::Platform& platform, const matrix::Partition& partition,
       HetSelection*) -> std::unique_ptr<sim::Scheduler> {
      return make_fault_tolerant(
          "FT-OMMOML", std::make_unique<MinMinScheduler>(
                           make_ommoml_calibrated(platform, partition)));
    });

HMXP_REGISTER_ALGORITHM(
    ft_orroml, "FT-ORROML", "fault-tolerant round-robin (re-assigns)", 12,
    [](const platform::Platform& platform, const matrix::Partition& partition,
       HetSelection*) -> std::unique_ptr<sim::Scheduler> {
      return make_fault_tolerant(
          "FT-ORROML", std::make_unique<RoundRobinScheduler>(
                           make_orroml(platform, partition)));
    });

HMXP_REGISTER_ALGORITHM(
    ft_bmm, "FT-BMM", "fault-tolerant Toledo BMM (re-assigns)", 13,
    [](const platform::Platform& platform, const matrix::Partition& partition,
       HetSelection*) -> std::unique_ptr<sim::Scheduler> {
      return make_fault_tolerant(
          "FT-BMM",
          std::make_unique<DemandDrivenScheduler>(make_bmm(platform,
                                                           partition)));
    });

}  // namespace hmxp::sched
