#include "platform/generator.hpp"

#include <cmath>
#include <string>
#include <vector>

#include "util/check.hpp"
#include "util/stats.hpp"

namespace hmxp::platform {

namespace {
// Group layout shared by the three one-parameter families: two workers of
// the first kind, four of the second, two of the third, as in the paper
// ("two workers ..., four of them ..., and the last two ...").
constexpr int kGroupSizes[3] = {2, 4, 2};
}  // namespace

PhysicalSpec base_spec() {
  PhysicalSpec spec;
  spec.mbps = 100.0;
  // Sustained dgemm on the paper's P4-class nodes: ~1.5 GFlop/s. This
  // pins the regime knee mu*w/(2c) where the paper observed it: the
  // 20-worker 1 GiB run enrolls P = ceil(127 * w / (2c)) = 11 workers,
  // matching "all algorithms making resource selection use eleven
  // workers" in section 6.3.
  spec.gflops = 1.5;
  spec.ram_mib = 512.0;
  spec.usable_fraction = 0.8;
  spec.label = "base";
  return spec;
}

Platform hetero_memory(const CalibrationConstants& constants) {
  const double mems[3] = {256.0, 512.0, 1024.0};
  std::vector<WorkerSpec> workers;
  for (int group = 0; group < 3; ++group) {
    for (int k = 0; k < kGroupSizes[group]; ++k) {
      PhysicalSpec spec = base_spec();
      spec.ram_mib = mems[group];
      spec.label = std::to_string(static_cast<int>(mems[group])) + "MiB";
      workers.push_back(calibrate(spec, constants));
    }
  }
  return Platform("hetero-memory", std::move(workers));
}

Platform hetero_links(const CalibrationConstants& constants) {
  // Paper ratio 10:5:1 -- see calibration.hpp for the 100 Mbps base.
  // Memory is homogeneous at the cluster's 1 GiB; this matters: with
  // mu = 127 only ceil(s / 127) column groups exist, so resource
  // selection also plays out through group scarcity, as in the paper.
  const double mbps[3] = {100.0, 50.0, 10.0};
  std::vector<WorkerSpec> workers;
  for (int group = 0; group < 3; ++group) {
    for (int k = 0; k < kGroupSizes[group]; ++k) {
      PhysicalSpec spec = base_spec();
      spec.ram_mib = 1024.0;
      spec.mbps = mbps[group];
      spec.label = std::to_string(static_cast<int>(mbps[group])) + "Mbps";
      workers.push_back(calibrate(spec, constants));
    }
  }
  return Platform("hetero-links", std::move(workers));
}

Platform hetero_compute(const CalibrationConstants& constants) {
  // Homogeneous links and memory (1 GiB, see hetero_links).
  const double gflops[3] = {1.5, 0.75, 0.375};  // S, S/2, S/4
  std::vector<WorkerSpec> workers;
  for (int group = 0; group < 3; ++group) {
    for (int k = 0; k < kGroupSizes[group]; ++k) {
      PhysicalSpec spec = base_spec();
      spec.ram_mib = 1024.0;
      spec.gflops = gflops[group];
      spec.label = util::format_fixed(gflops[group], 1) + "GF";
      workers.push_back(calibrate(spec, constants));
    }
  }
  return Platform("hetero-compute", std::move(workers));
}

Platform fully_hetero(double ratio, const CalibrationConstants& constants) {
  HMXP_REQUIRE(ratio >= 1.0, "heterogeneity ratio must be >= 1");
  std::vector<WorkerSpec> workers;
  for (int combo = 0; combo < 8; ++combo) {
    const bool fast_link = (combo & 1) != 0;
    const bool fast_cpu = (combo & 2) != 0;
    const bool big_mem = (combo & 4) != 0;
    PhysicalSpec spec = base_spec();
    spec.mbps = fast_link ? 100.0 : 100.0 / ratio;
    spec.gflops = fast_cpu ? 1.5 : 1.5 / ratio;
    spec.ram_mib = big_mem ? 1024.0 : 1024.0 / ratio;
    spec.label = std::string(fast_link ? "L+" : "L-") +
                 (fast_cpu ? "C+" : "C-") + (big_mem ? "M+" : "M-");
    workers.push_back(calibrate(spec, constants));
  }
  return Platform("fully-hetero-r" + util::format_fixed(ratio, 0),
                  std::move(workers));
}

Platform random_platform(util::Rng& rng, int p,
                         const CalibrationConstants& constants) {
  HMXP_REQUIRE(p >= 1, "need at least one worker");
  // Named after the generator's state at this call, read from a copy so
  // that no draw is used up: successive draws from one generator get
  // distinct names, and a replayed seed gets the same ones.
  const std::string name = "random-" + std::to_string(util::Rng(rng)());
  std::vector<WorkerSpec> workers;
  for (int i = 0; i < p; ++i) {
    PhysicalSpec spec = base_spec();
    // "The ratio between minimum and maximum values ... is up to four."
    spec.mbps = 100.0 / rng.uniform(1.0, 4.0);
    spec.gflops = 1.5 / rng.uniform(1.0, 4.0);
    spec.ram_mib = 1024.0 / rng.uniform(1.0, 4.0);
    spec.label = "rnd" + std::to_string(i + 1);
    workers.push_back(calibrate(spec, constants));
  }
  return Platform(name, std::move(workers));
}

namespace {
Platform real_platform(bool memory_upgraded,
                       const CalibrationConstants& constants) {
  struct Group {
    const char* label;
    double ghz;
    double old_ram_mib;  // November 2006
    double new_ram_mib;  // August 2007
  };
  // Sustained dgemm roughly tracks clock for these P4-class parts:
  // ~0.625 flop/cycle with ATLAS (1.5 GFlop/s at 2.4 GHz).
  const Group groups[4] = {
      {"5013-GM P4 2.4GHz", 2.4, 256.0, 1024.0},
      {"6013PI Xeon 2.4GHz", 2.4, 1024.0, 1024.0},
      {"5013SI Xeon 2.6GHz", 2.6, 1024.0, 1024.0},
      {"IDE250W P4 2.8GHz", 2.8, 256.0, 1024.0},
  };
  std::vector<WorkerSpec> workers;
  for (const Group& group : groups) {
    for (int k = 0; k < 5; ++k) {
      PhysicalSpec spec = base_spec();
      spec.gflops = group.ghz * 0.625;
      spec.ram_mib = memory_upgraded ? group.new_ram_mib : group.old_ram_mib;
      spec.label = group.label;
      workers.push_back(calibrate(spec, constants));
    }
  }
  return Platform(memory_upgraded ? "real-aug2007" : "real-nov2006",
                  std::move(workers));
}
}  // namespace

Platform real_platform_aug2007(const CalibrationConstants& constants) {
  return real_platform(/*memory_upgraded=*/true, constants);
}

Platform real_platform_nov2006(const CalibrationConstants& constants) {
  return real_platform(/*memory_upgraded=*/false, constants);
}

}  // namespace hmxp::platform
