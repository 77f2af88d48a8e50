// Shared machinery for the figure-reproduction benches: the paper's
// instance sets, table printing and optional CSV dumps.
#pragma once

#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "platform/generator.hpp"
#include "util/flags.hpp"

namespace hmxp::bench {

/// Paper matrix sizes: A is 8000x8000 (r = t = 100 at q = 80); B is
/// 8000 x (800 q) .. 8000 x (1600 q) for the size sweeps.
matrix::Partition paper_partition(std::size_t s_blocks);

/// The five B widths of the size sweeps (s = 800..1600 blocks,
/// i.e. B = 8000x64000 .. 8000x128000).
const std::vector<std::size_t>& paper_size_sweep();

/// Instances of each figure's experiment.
std::vector<core::Instance> fig4_instances();             // hetero memory
std::vector<core::Instance> fig5_instances();             // hetero links
std::vector<core::Instance> fig6_instances();             // hetero compute
std::vector<core::Instance> fig7_instances(std::uint64_t seed);  // fully hetero
std::vector<core::Instance> fig8_instances(std::size_t s_blocks);  // real

/// Runs an experiment and prints the paper's two charts (relative cost
/// and relative work) plus the enrolled-worker table; optionally dumps
/// CSV series next to the binary.
void report_experiment(const std::string& title,
                       const std::vector<core::Instance>& instances,
                       const std::optional<std::string>& csv_prefix);

/// Common flag setup: --csv=<prefix> to dump series, --quick for a
/// reduced sweep (used by CI-style smoke runs).
struct BenchArgs {
  std::optional<std::string> csv_prefix;
  bool quick = false;
};
std::optional<BenchArgs> parse_bench_args(int argc, char** argv,
                                          const std::string& description);

}  // namespace hmxp::bench
