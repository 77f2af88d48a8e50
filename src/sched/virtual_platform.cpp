#include "sched/virtual_platform.hpp"
#include "sched/registry.hpp"

#include <algorithm>
#include <limits>
#include <map>
#include <set>
#include <sstream>
#include <tuple>

#include "sim/scheduler.hpp"
#include "util/check.hpp"

namespace hmxp::sched {

namespace {

/// Exact makespan of the homogeneous algorithm on a virtual homogeneous
/// platform of `count` workers with the given parameters.
model::Time predict(const HomogeneousParams& params, int count,
                    const matrix::Partition& partition) {
  const platform::Platform virtual_platform =
      platform::Platform::homogeneous(count, params.c, params.w, params.m);
  RoundRobinScheduler scheduler =
      make_homogeneous(virtual_platform, partition);
  return sim::simulate(scheduler, virtual_platform, partition).makespan;
}

/// What fixes the schedule `predict` simulates: (P_eff, mu_eff, c, w),
/// exact for the reasons the header gives.
using ScheduleKey =
    std::tuple<int, model::BlockCount, model::Time, model::Time>;
using Predictions = std::map<ScheduleKey, model::Time>;

ScheduleKey schedule_key(const HomogeneousParams& params, int count,
                         const matrix::Partition& partition) {
  const auto r = static_cast<model::BlockCount>(partition.r());
  const auto s = static_cast<model::BlockCount>(partition.s());
  const model::BlockCount mu = params.mu();
  const model::BlockCount width = std::min(mu, s);
  const model::BlockCount groups = (s + width - 1) / width;
  const auto enrolled = static_cast<int>(
      std::min<model::BlockCount>(params.enrollment(count), groups));
  return {enrolled, std::min(mu, std::max(r, s)), params.c, params.w};
}

std::string describe(const HomogeneousParams& params, std::size_t eligible) {
  std::ostringstream os;
  os << "m>=" << params.m << " c<=" << params.c << " w<=" << params.w << " ("
     << eligible << " eligible)";
  return os.str();
}

/// Evaluates one (m, c, w) threshold triple; updates `best` if finer.
/// Simulates only a schedule `predictions` has not seen yet.
void consider(const platform::Platform& platform,
              const matrix::Partition& partition, model::BlockCount m,
              model::Time c, model::Time w, Predictions& predictions,
              VirtualSelection& best) {
  std::vector<int> eligible;
  for (int i = 0; i < platform.size(); ++i) {
    const platform::WorkerSpec& spec = platform.worker(i);
    if (spec.m >= m && spec.c <= c + 1e-15 && spec.w <= w + 1e-15)
      eligible.push_back(i);
  }
  if (eligible.empty()) return;

  const HomogeneousParams params{c, w, m};
  const int count = static_cast<int>(eligible.size());
  const auto [slot, fresh] =
      predictions.try_emplace(schedule_key(params, count, partition));
  if (fresh) slot->second = predict(params, count, partition);
  const model::Time makespan = slot->second;
  if (makespan < best.predicted_makespan) {
    best.params = params;
    best.candidates = std::move(eligible);
    best.predicted_makespan = makespan;
    best.description = describe(params, best.candidates.size());
  }
}

}  // namespace

VirtualSelection select_hom(const platform::Platform& platform,
                            const matrix::Partition& partition) {
  VirtualSelection best;
  best.predicted_makespan = std::numeric_limits<model::Time>::infinity();

  Predictions predictions;
  std::set<model::BlockCount> memories;
  for (const platform::WorkerSpec& worker : platform.workers())
    memories.insert(worker.m);

  for (const model::BlockCount m : memories) {
    // Apparent bandwidth/speed: the worst among eligible workers.
    model::Time c = 0.0;
    model::Time w = 0.0;
    for (const platform::WorkerSpec& worker : platform.workers()) {
      if (worker.m >= m) {
        c = std::max(c, worker.c);
        w = std::max(w, worker.w);
      }
    }
    consider(platform, partition, m, c, w, predictions, best);
  }
  HMXP_CHECK(!best.candidates.empty(), "Hom selection found no platform");
  return best;
}

VirtualSelection select_homi(const platform::Platform& platform,
                             const matrix::Partition& partition) {
  VirtualSelection best;
  best.predicted_makespan = std::numeric_limits<model::Time>::infinity();

  Predictions predictions;
  std::set<model::BlockCount> memories;
  std::set<model::Time> bandwidths;
  std::set<model::Time> speeds;
  for (const platform::WorkerSpec& worker : platform.workers()) {
    memories.insert(worker.m);
    bandwidths.insert(worker.c);
    speeds.insert(worker.w);
  }

  for (const model::BlockCount m : memories)
    for (const model::Time c : bandwidths)
      for (const model::Time w : speeds)
        consider(platform, partition, m, c, w, predictions, best);

  HMXP_CHECK(!best.candidates.empty(), "HomI selection found no platform");
  return best;
}

RoundRobinScheduler make_hom(const platform::Platform& platform,
                             const matrix::Partition& partition) {
  const VirtualSelection selection = select_hom(platform, partition);
  return make_homogeneous_on("Hom", platform, partition, selection.params,
                             selection.candidates);
}

RoundRobinScheduler make_homi(const platform::Platform& platform,
                              const matrix::Partition& partition) {
  const VirtualSelection selection = select_homi(platform, partition);
  return make_homogeneous_on("HomI", platform, partition, selection.params,
                             selection.candidates);
}

HMXP_REGISTER_ALGORITHM(
    hom, "Hom", "homogeneous algorithm on the best memory-threshold platform",
    0,
    [](const platform::Platform& platform, const matrix::Partition& partition,
       HetSelection*) -> std::unique_ptr<sim::Scheduler> {
      return std::make_unique<RoundRobinScheduler>(
          make_hom(platform, partition));
    });

HMXP_REGISTER_ALGORITHM(
    homi, "HomI", "improved Hom: (m, c, w) threshold grid", 1,
    [](const platform::Platform& platform, const matrix::Partition& partition,
       HetSelection*) -> std::unique_ptr<sim::Scheduler> {
      return std::make_unique<RoundRobinScheduler>(
          make_homi(platform, partition));
    });

}  // namespace hmxp::sched
