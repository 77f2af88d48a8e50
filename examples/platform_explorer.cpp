// Platform explorer: sweep one heterogeneity axis and watch how each
// algorithm's makespan and resource selection respond -- an interactive
// way to reproduce the crossovers behind Figs. 4-6.
//
// Run:  ./platform_explorer --axis=links --points=5
//       (axes: memory | links | compute)
#include <iostream>

#include "core/experiment.hpp"
#include "platform/calibration.hpp"
#include "util/flags.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace hmxp;
  util::Flags flags;
  flags.define("axis", "links", "heterogeneity axis: memory|links|compute");
  flags.define("points", "4", "sweep points (degradation 1x .. 2^(points-1)x)");
  flags.define("s", "400", "width of B in q-blocks");
  flags.parse_or_exit(argc, argv);
  if (flags.help_requested()) {
    std::cout << flags.usage("Heterogeneity sweep explorer");
    return 0;
  }
  const std::string axis = flags.get_string("axis");
  const auto points = static_cast<int>(flags.get_int("points"));
  const auto s = static_cast<std::size_t>(flags.get_int("s"));
  const matrix::Partition part =
      matrix::Partition::from_blocks(100, 100, s, 80);

  // 8 workers; half stay at the base spec, half degrade by the factor.
  const auto make_platform = [&](double factor) {
    std::vector<platform::WorkerSpec> workers;
    for (int i = 0; i < 8; ++i) {
      platform::PhysicalSpec spec;
      spec.mbps = 100.0;
      spec.gflops = 1.5;
      spec.ram_mib = 1024.0;
      spec.label = i < 4 ? "base" : "degraded";
      if (i >= 4) {
        if (axis == "memory") spec.ram_mib /= factor;
        else if (axis == "links") spec.mbps /= factor;
        else spec.gflops /= factor;
      }
      workers.push_back(platform::calibrate(spec));
    }
    return platform::Platform(axis + "-x" + util::format_fixed(factor, 1),
                              std::move(workers));
  };

  const auto& algorithms = core::paper_algorithms();
  std::vector<std::string> headers{"degradation"};
  for (const auto& algorithm : algorithms)
    headers.push_back(core::algorithm_name(algorithm));
  util::Table cost(headers);
  util::Table enrolled(headers);
  cost.set_align(0, util::Align::kLeft);
  enrolled.set_align(0, util::Align::kLeft);

  double factor = 1.0;
  for (int point = 0; point < points; ++point, factor *= 2.0) {
    const core::Instance instance{"sweep", make_platform(factor), part};
    const auto results = core::run_instance(instance, algorithms);
    auto cost_row = cost.build_row();
    auto enrolled_row = enrolled.build_row();
    cost_row.cell(util::format_fixed(factor, 1) + "x");
    enrolled_row.cell(util::format_fixed(factor, 1) + "x");
    for (std::size_t a = 0; a < algorithms.size(); ++a) {
      cost_row.cell(results.relative_cost[a], 3);
      enrolled_row.cell(static_cast<long long>(
          results.reports[a].result.workers_enrolled));
    }
    cost_row.done();
    enrolled_row.done();
  }

  std::cout << "Axis: " << axis << " (4 of 8 workers degraded)\n\n"
            << "Relative cost per degradation factor:\n";
  cost.print(std::cout);
  std::cout << "\nEnrolled workers:\n";
  enrolled.print(std::cout);
  std::cout << "\nWatch Het stay near 1.0 while fixed strategies drift as "
               "heterogeneity grows.\n";
  return 0;
}
