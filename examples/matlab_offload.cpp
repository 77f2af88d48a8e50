// The paper's motivating scenario: a MATLAB/SCILAB-style server holds
// the matrices and offloads C <- C + A*B to whatever heterogeneous
// machines it is allowed to enroll.
//
// This example plays the server: given the cluster description, it asks
// every algorithm for a plan, prints the trade-off table (time vs
// resources used), recommends one, and then actually runs the
// recommended plan on real data through the threaded runtime.
//
// Run:  ./matlab_offload [--s=<block-cols of B>]
#include <iostream>

#include "core/experiment.hpp"
#include "platform/generator.hpp"
#include "runtime/executor.hpp"
#include "util/flags.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace hmxp;
  util::Flags flags;
  flags.define("s", "800", "width of B in q-blocks for the planning phase");
  flags.parse_or_exit(argc, argv);
  if (flags.help_requested()) {
    std::cout << flags.usage("MATLAB-offload scenario");
    return 0;
  }

  // The server's view of the machines it may enroll: the paper's
  // memory-heterogeneous cluster.
  const platform::Platform plat = platform::hetero_memory();
  std::cout << "Cluster available to the server:\n" << plat.to_string() << '\n';

  // Planning phase: evaluate all seven algorithms on the full problem
  // (simulation only; nothing is sent anywhere).
  const auto s = static_cast<std::size_t>(flags.get_int("s"));
  const matrix::Partition plan_part =
      matrix::Partition::from_blocks(100, 100, s, 80);
  const core::Instance instance{"plan", plat, plan_part};
  const auto results = core::run_instance(instance, core::paper_algorithms());

  util::Table table({"algorithm", "makespan", "workers", "rel cost",
                     "rel work", "port blocks"});
  table.set_align(0, util::Align::kLeft);
  for (std::size_t i = 0; i < results.reports.size(); ++i) {
    const auto& report = results.reports[i];
    table.build_row()
        .cell(report.algorithm_label)
        .cell(util::format_duration(report.result.makespan))
        .cell(static_cast<long long>(report.result.workers_enrolled))
        .cell(results.relative_cost[i], 3)
        .cell(results.relative_work[i], 3)
        .cell(static_cast<long long>(report.result.comm_blocks))
        .done();
  }
  std::cout << "Plans for C (8000x" << s * 80 << ") += A (8000x8000) * B:\n";
  table.print(std::cout);

  // Recommendation: best makespan, ties broken by fewer workers.
  std::size_t best = 0;
  for (std::size_t i = 1; i < results.reports.size(); ++i) {
    const auto& challenger = results.reports[i];
    const auto& incumbent = results.reports[best];
    if (challenger.result.makespan < incumbent.result.makespan - 1e-9 ||
        (challenger.result.makespan < incumbent.result.makespan + 1e-9 &&
         challenger.result.workers_enrolled <
             incumbent.result.workers_enrolled))
      best = i;
  }
  const std::string chosen = results.reports[best].algorithm_label;
  std::cout << "\nRecommended: " << chosen << " ("
            << util::format_duration(results.reports[best].result.makespan)
            << " predicted, " << results.reports[best].result.workers_enrolled
            << " workers)\n\n";

  // Execution phase on a laptop-sized instance of the same shape so the
  // example finishes in seconds: same cluster, q = 8.
  const matrix::Partition exec_part(160, 160, 480, 8);
  util::Rng rng(7);
  const auto a = matrix::Matrix::random(160, 160, rng);
  const auto b = matrix::Matrix::random(160, 480, rng);
  matrix::Matrix c(160, 480, 0.0);
  const auto executed =
      runtime::run_on_data(chosen, plat, exec_part, a, b, c);
  std::cout << "Executed " << chosen << " on real data: "
            << executed.updates_performed << " block updates across "
            << executed.chunks_processed << " chunks, max |error| "
            << executed.max_abs_error << (executed.verified ? " [verified]" : "")
            << '\n';
  return 0;
}
