// Tests for Hom / HomI virtual-platform extraction (section 6.2).
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <set>
#include <sstream>

#include "platform/generator.hpp"
#include "sched/virtual_platform.hpp"
#include "sim/scheduler.hpp"
#include "util/rng.hpp"

namespace hmxp::sched {
namespace {

matrix::Partition blocks(std::size_t r, std::size_t t, std::size_t s) {
  return matrix::Partition::from_blocks(r, t, s, 80);
}

TEST(VirtualPlatform, HomOnHomogeneousPlatformIsIdentity) {
  const auto plat = platform::Platform::homogeneous(5, 0.004, 0.0007, 800);
  const auto part = blocks(20, 8, 40);
  const VirtualSelection selection = select_hom(plat, part);
  EXPECT_EQ(selection.candidates.size(), 5u);
  EXPECT_DOUBLE_EQ(selection.params.c, 0.004);
  EXPECT_DOUBLE_EQ(selection.params.w, 0.0007);
  EXPECT_EQ(selection.params.m, 800);
}

TEST(VirtualPlatform, HomChoosesAmongMemoryThresholds) {
  const platform::Platform plat = platform::hetero_memory();
  const auto part = blocks(20, 10, 60);
  const VirtualSelection selection = select_hom(plat, part);
  // The virtual memory must be one of the three platform memory sizes
  // and the candidates exactly the workers at or above it.
  std::set<model::BlockCount> memories;
  for (const auto& worker : plat.workers()) memories.insert(worker.m);
  EXPECT_TRUE(memories.count(selection.params.m) == 1);
  for (const int index : selection.candidates)
    EXPECT_GE(plat.worker(index).m, selection.params.m);
  EXPECT_GT(selection.predicted_makespan, 0.0);
}

TEST(VirtualPlatform, HomUsesWorstSpeedAmongEligible) {
  // On the links platform all memories are equal, so Hom sees a single
  // candidate platform whose virtual c is the worst link.
  const platform::Platform plat = platform::hetero_links();
  const auto part = blocks(20, 10, 60);
  const VirtualSelection selection = select_hom(plat, part);
  EXPECT_EQ(selection.candidates.size(), 8u);
  double worst_c = 0;
  for (const auto& worker : plat.workers())
    worst_c = std::max(worst_c, worker.c);
  EXPECT_DOUBLE_EQ(selection.params.c, worst_c);
}

TEST(VirtualPlatform, HomIPredictionNeverWorseThanHom) {
  // HomI's search space includes every Hom candidate (for a memory
  // threshold M, HomI also evaluates (M, worst c, worst w)), so its
  // predicted makespan is never worse.
  for (const auto& plat :
       {platform::hetero_memory(), platform::hetero_links(),
        platform::hetero_compute(), platform::fully_hetero(4.0)}) {
    const auto part = blocks(15, 8, 40);
    const VirtualSelection hom = select_hom(plat, part);
    const VirtualSelection homi = select_homi(plat, part);
    EXPECT_LE(homi.predicted_makespan, hom.predicted_makespan + 1e-9)
        << plat.name();
  }
}

TEST(VirtualPlatform, HomISelectsFastLinksOnLinkHeterogeneousPlatform) {
  const platform::Platform plat = platform::hetero_links();
  const auto part = blocks(20, 10, 60);
  const VirtualSelection selection = select_homi(plat, part);
  // The chosen virtual bandwidth must beat the platform's worst link:
  // the whole point of HomI on this platform (fig. 5).
  double worst_c = 0;
  for (const auto& worker : plat.workers())
    worst_c = std::max(worst_c, worker.c);
  EXPECT_LT(selection.params.c, worst_c);
  for (const int index : selection.candidates)
    EXPECT_LE(plat.worker(index).c, selection.params.c + 1e-15);
}

TEST(VirtualPlatform, SchedulersRunOnRealPlatform) {
  const platform::Platform plat = platform::hetero_memory();
  const auto part = blocks(20, 10, 60);
  auto hom = make_hom(plat, part);
  auto homi = make_homi(plat, part);
  const auto hom_result = sim::simulate(hom, plat, part, true);
  const auto homi_result = sim::simulate(homi, plat, part, true);
  EXPECT_EQ(hom_result.updates, 20 * 60 * 10);
  EXPECT_EQ(homi_result.updates, 20 * 60 * 10);
  EXPECT_TRUE(hom_result.trace.one_port_respected());
  EXPECT_TRUE(homi_result.trace.one_port_respected());
}

/// Selection without the memo: simulates every (m, c, w) triple on its
/// virtual platform and keeps the first strict minimum. `improved`
/// walks HomI's full threshold grid, otherwise Hom's memory thresholds
/// with the worst link and speed among the eligible workers.
VirtualSelection simulate_every_triple(const platform::Platform& plat,
                                       const matrix::Partition& part,
                                       bool improved) {
  std::set<model::BlockCount> memories;
  std::set<model::Time> bandwidths, speeds;
  for (const auto& worker : plat.workers()) {
    memories.insert(worker.m);
    bandwidths.insert(worker.c);
    speeds.insert(worker.w);
  }
  VirtualSelection best;
  best.predicted_makespan = std::numeric_limits<model::Time>::infinity();
  const auto consider = [&](model::BlockCount m, model::Time c,
                            model::Time w) {
    std::vector<int> eligible;
    for (int i = 0; i < plat.size(); ++i) {
      const auto& spec = plat.worker(i);
      if (spec.m >= m && spec.c <= c + 1e-15 && spec.w <= w + 1e-15)
        eligible.push_back(i);
    }
    if (eligible.empty()) return;
    const auto virtual_platform = platform::Platform::homogeneous(
        static_cast<int>(eligible.size()), c, w, m);
    RoundRobinScheduler scheduler =
        make_homogeneous(virtual_platform, part);
    const model::Time makespan =
        sim::simulate(scheduler, virtual_platform, part).makespan;
    if (makespan < best.predicted_makespan) {
      best.params = HomogeneousParams{c, w, m};
      best.candidates = eligible;
      best.predicted_makespan = makespan;
      std::ostringstream os;
      os << "m>=" << m << " c<=" << c << " w<=" << w << " ("
         << eligible.size() << " eligible)";
      best.description = os.str();
    }
  };
  for (const model::BlockCount m : memories) {
    if (improved) {
      for (const model::Time c : bandwidths)
        for (const model::Time w : speeds) consider(m, c, w);
      continue;
    }
    model::Time c = 0.0, w = 0.0;
    for (const auto& worker : plat.workers()) {
      if (worker.m >= m) {
        c = std::max(c, worker.c);
        w = std::max(w, worker.w);
      }
    }
    consider(m, c, w);
  }
  return best;
}

void expect_same_selection(const VirtualSelection& actual,
                           const VirtualSelection& expected,
                           const std::string& where) {
  EXPECT_EQ(actual.params.c, expected.params.c) << where;
  EXPECT_EQ(actual.params.w, expected.params.w) << where;
  EXPECT_EQ(actual.params.m, expected.params.m) << where;
  EXPECT_EQ(actual.candidates, expected.candidates) << where;
  EXPECT_EQ(actual.description, expected.description) << where;
  EXPECT_EQ(actual.predicted_makespan, expected.predicted_makespan) << where;
}

TEST(VirtualPlatform, SelectionEqualsSimulatingEveryTriple) {
  // Each distinct schedule is simulated once, so the selection must be
  // the one simulating every triple finds, bit for bit. The shapes
  // reach every branch of the schedule key: chunk side at least
  // max(r, s); fewer column groups than enrolled workers; chunk side
  // between r and s, both ways; chunk side below min(r, s).
  std::vector<platform::Platform> platforms = {
      platform::hetero_memory(),         platform::hetero_links(),
      platform::hetero_compute(),        platform::fully_hetero(2.0),
      platform::fully_hetero(4.0),       platform::real_platform_aug2007(),
      platform::real_platform_nov2006()};
  util::Rng rng(23);
  for (int draw = 0; draw < 30; ++draw)
    platforms.push_back(platform::random_platform(
        rng, static_cast<int>(rng.uniform_int(2, 10))));
  const std::vector<matrix::Partition> partitions = {
      blocks(20, 100, 20), blocks(37, 50, 91), blocks(5, 10, 300),
      blocks(300, 10, 5), blocks(200, 30, 150)};
  for (std::size_t p = 0; p < platforms.size(); ++p) {
    for (const matrix::Partition& part : partitions) {
      const std::string where = "platform " + std::to_string(p) + " (" +
                                platforms[p].name() + "), " +
                                std::to_string(part.r()) + "x" +
                                std::to_string(part.t()) + "x" +
                                std::to_string(part.s());
      expect_same_selection(select_hom(platforms[p], part),
                            simulate_every_triple(platforms[p], part, false),
                            "Hom on " + where);
      expect_same_selection(select_homi(platforms[p], part),
                            simulate_every_triple(platforms[p], part, true),
                            "HomI on " + where);
    }
  }
}

TEST(VirtualPlatform, DescriptionMentionsThresholds) {
  const platform::Platform plat = platform::hetero_memory();
  const auto part = blocks(10, 5, 30);
  const VirtualSelection selection = select_homi(plat, part);
  EXPECT_NE(selection.description.find("m>="), std::string::npos);
  EXPECT_NE(selection.description.find("eligible"), std::string::npos);
}

}  // namespace
}  // namespace hmxp::sched
