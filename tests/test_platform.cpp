// Tests for platform specs, calibration and the section 6 generators.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "platform/calibration.hpp"
#include "platform/generator.hpp"
#include "platform/platform.hpp"
#include "util/rng.hpp"

namespace hmxp::platform {
namespace {

TEST(Calibration, BlockBytes) {
  CalibrationConstants constants;  // q = 80, doubles
  EXPECT_EQ(block_bytes(constants), 51200u);
}

TEST(Calibration, CommSeconds) {
  CalibrationConstants constants;
  // 51200 bytes * 8 bits / 100e6 bps = 4.096 ms.
  EXPECT_NEAR(block_comm_seconds(100.0, constants), 4.096e-3, 1e-9);
  EXPECT_NEAR(block_comm_seconds(10.0, constants), 40.96e-3, 1e-9);
  EXPECT_THROW(block_comm_seconds(0.0, constants), std::invalid_argument);
}

TEST(Calibration, UpdateSeconds) {
  CalibrationConstants constants;
  // 2 * 80^3 flops at 1.5 GFlop/s.
  EXPECT_NEAR(block_update_seconds(1.5, constants), 2.0 * 512000 / 1.5e9,
              1e-12);
}

TEST(Calibration, MemoryBlocks) {
  CalibrationConstants constants;
  // 512 MiB * 0.8 / 51200 B.
  const auto blocks = memory_blocks(512.0, 0.8, constants);
  EXPECT_EQ(blocks, static_cast<model::BlockCount>(
                        std::floor(512.0 * 1024 * 1024 * 0.8 / 51200.0)));
  EXPECT_THROW(memory_blocks(512.0, 0.0, constants), std::invalid_argument);
  EXPECT_THROW(memory_blocks(512.0, 1.5, constants), std::invalid_argument);
}

TEST(Platform, WorkerLayoutSides) {
  const WorkerSpec worker{0.004, 0.0004, 8388, "test"};
  EXPECT_EQ(worker.mu(), model::double_buffered_mu(8388));
  EXPECT_EQ(worker.beta(), model::toledo_beta(8388));
  EXPECT_GT(worker.mu(), worker.beta());
}

TEST(Platform, HomogeneousConstruction) {
  const Platform plat = Platform::homogeneous(4, 0.01, 0.001, 100);
  EXPECT_EQ(plat.size(), 4);
  EXPECT_TRUE(plat.is_homogeneous());
  EXPECT_EQ(plat.worker(3).m, 100);
  EXPECT_THROW(plat.worker(4), std::invalid_argument);
  EXPECT_THROW(Platform::homogeneous(0, 0.01, 0.001, 100),
               std::invalid_argument);
}

TEST(Platform, RejectsTinyMemory) {
  EXPECT_THROW(Platform("bad", {WorkerSpec{0.01, 0.001, 4, ""}}),
               std::invalid_argument);
}

TEST(Platform, SubsetPreservesOriginalIndices) {
  Platform plat = hetero_memory();
  const Platform sub = plat.subset({5, 2, 7}, "sub");
  EXPECT_EQ(sub.size(), 3);
  EXPECT_EQ(sub.original_index(0), 5);
  EXPECT_EQ(sub.original_index(2), 7);
  EXPECT_EQ(sub.worker(1), plat.worker(2));
  EXPECT_THROW(plat.subset({}, "empty"), std::invalid_argument);
  EXPECT_THROW(plat.subset({99}, "oob"), std::invalid_argument);
}

TEST(Generators, HeteroMemoryShape) {
  const Platform plat = hetero_memory();
  ASSERT_EQ(plat.size(), 8);
  // Uniform c and w; memories in a 2-4-2 split of 3 sizes.
  std::set<model::BlockCount> memories;
  for (const WorkerSpec& worker : plat.workers()) {
    EXPECT_DOUBLE_EQ(worker.c, plat.worker(0).c);
    EXPECT_DOUBLE_EQ(worker.w, plat.worker(0).w);
    memories.insert(worker.m);
  }
  EXPECT_EQ(memories.size(), 3u);
  EXPECT_FALSE(plat.is_homogeneous());
  // 1 GiB holds 4x the blocks of 256 MiB (up to floor rounding).
  EXPECT_NEAR(static_cast<double>(plat.worker(7).m) /
                  static_cast<double>(plat.worker(0).m),
              4.0, 0.01);
}

TEST(Generators, HeteroLinksShape) {
  const Platform plat = hetero_links();
  ASSERT_EQ(plat.size(), 8);
  std::set<double> costs;
  for (const WorkerSpec& worker : plat.workers()) {
    EXPECT_EQ(worker.m, plat.worker(0).m);
    EXPECT_DOUBLE_EQ(worker.w, plat.worker(0).w);
    costs.insert(worker.c);
  }
  EXPECT_EQ(costs.size(), 3u);
  // Paper's 10:5:1 bandwidth ratios -> 1:2:10 cost ratios.
  EXPECT_NEAR(plat.worker(7).c / plat.worker(0).c, 10.0, 1e-9);
  EXPECT_NEAR(plat.worker(3).c / plat.worker(0).c, 2.0, 1e-9);
}

TEST(Generators, HeteroComputeShape) {
  const Platform plat = hetero_compute();
  ASSERT_EQ(plat.size(), 8);
  // S, S/2, S/4 -> w ratios 1:2:4.
  EXPECT_NEAR(plat.worker(7).w / plat.worker(0).w, 4.0, 1e-9);
  EXPECT_NEAR(plat.worker(2).w / plat.worker(0).w, 2.0, 1e-9);
  for (const WorkerSpec& worker : plat.workers())
    EXPECT_DOUBLE_EQ(worker.c, plat.worker(0).c);
}

TEST(Generators, FullyHeteroEnumeratesOctants) {
  const Platform plat = fully_hetero(2.0);
  ASSERT_EQ(plat.size(), 8);
  std::set<std::tuple<double, double, model::BlockCount>> distinct;
  for (const WorkerSpec& worker : plat.workers())
    distinct.insert({worker.c, worker.w, worker.m});
  EXPECT_EQ(distinct.size(), 8u);  // every combination distinct
  EXPECT_THROW(fully_hetero(0.5), std::invalid_argument);
}

TEST(Generators, FullyHeteroRatioControlsSpread) {
  for (const double ratio : {2.0, 4.0}) {
    const Platform plat = fully_hetero(ratio);
    double c_min = 1e9, c_max = 0;
    for (const WorkerSpec& worker : plat.workers()) {
      c_min = std::min(c_min, worker.c);
      c_max = std::max(c_max, worker.c);
    }
    EXPECT_NEAR(c_max / c_min, ratio, 1e-9);
  }
}

TEST(Generators, RandomPlatformWithinRatioFour) {
  util::Rng rng(2024);
  for (int round = 0; round < 10; ++round) {
    const Platform plat = random_platform(rng);
    ASSERT_EQ(plat.size(), 8);
    double c_min = 1e18, c_max = 0, w_min = 1e18, w_max = 0;
    model::BlockCount m_min = 1LL << 60, m_max = 0;
    for (const WorkerSpec& worker : plat.workers()) {
      c_min = std::min(c_min, worker.c);
      c_max = std::max(c_max, worker.c);
      w_min = std::min(w_min, worker.w);
      w_max = std::max(w_max, worker.w);
      m_min = std::min(m_min, worker.m);
      m_max = std::max(m_max, worker.m);
    }
    EXPECT_LE(c_max / c_min, 4.0 + 1e-9);
    EXPECT_LE(w_max / w_min, 4.0 + 1e-9);
    EXPECT_LE(static_cast<double>(m_max) / static_cast<double>(m_min),
              4.0 + 1e-6);
  }
}

TEST(Generators, RandomPlatformDrawsAreNamedApart) {
  const auto names = [] {
    util::Rng rng(23);
    std::vector<std::string> out;
    for (int draw = 0; draw < 30; ++draw)
      out.push_back(random_platform(rng).name());
    return out;
  };
  const std::vector<std::string> first = names();
  EXPECT_EQ(std::set<std::string>(first.begin(), first.end()).size(), 30u);
  // Replaying the seed replays the names, in order.
  EXPECT_EQ(names(), first);

  // Naming uses up no draw: a call advances the generator by exactly
  // the 3p uniform draws of the workers' (c, w, m).
  for (const int p : {1, 8}) {
    util::Rng rng(23);
    util::Rng twin(23);
    random_platform(rng, p);
    for (int draw = 0; draw < 3 * p; ++draw) twin.uniform();
    EXPECT_EQ(rng(), twin()) << "p=" << p;
  }
}

TEST(Generators, RealPlatformsMatchSection63) {
  const Platform aug = real_platform_aug2007();
  const Platform nov = real_platform_nov2006();
  ASSERT_EQ(aug.size(), 20);
  ASSERT_EQ(nov.size(), 20);
  // Aug 2007: uniform memory; Nov 2006: two groups of five at 256 MiB.
  std::set<model::BlockCount> aug_mem, nov_mem;
  for (const WorkerSpec& worker : aug.workers()) aug_mem.insert(worker.m);
  for (const WorkerSpec& worker : nov.workers()) nov_mem.insert(worker.m);
  EXPECT_EQ(aug_mem.size(), 1u);
  EXPECT_EQ(nov_mem.size(), 2u);
  int small = 0;
  for (const WorkerSpec& worker : nov.workers())
    if (worker.m == *nov_mem.begin()) ++small;
  EXPECT_EQ(small, 10);  // 5 + 5 nodes still at 256 MiB
  // Four speed groups in both configurations.
  std::set<double> speeds;
  for (const WorkerSpec& worker : aug.workers()) speeds.insert(worker.w);
  EXPECT_EQ(speeds.size(), 3u);  // 2.4 appears twice (P4 and Xeon)
}

TEST(Platform, SteadyWorkersConversion) {
  const Platform plat = hetero_memory();
  const auto steady = plat.steady_workers();
  ASSERT_EQ(steady.size(), 8u);
  for (int i = 0; i < plat.size(); ++i) {
    EXPECT_DOUBLE_EQ(steady[static_cast<std::size_t>(i)].c, plat.worker(i).c);
    EXPECT_EQ(steady[static_cast<std::size_t>(i)].mu, plat.worker(i).mu());
  }
}

TEST(Platform, ToStringMentionsEveryWorker) {
  const Platform plat = hetero_links();
  const std::string text = plat.to_string();
  EXPECT_NE(text.find("P1"), std::string::npos);
  EXPECT_NE(text.find("P8"), std::string::npos);
  EXPECT_NE(text.find("mu="), std::string::npos);
}

}  // namespace
}  // namespace hmxp::platform
