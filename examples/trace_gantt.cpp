// Trace/Gantt export: run one algorithm, dump the full event trace
// (master port operations + per-worker computations) as CSV for
// plotting, and print an ASCII utilization strip per resource.
//
// Run:  ./trace_gantt --algorithm=Het --out=gantt.csv
#include <fstream>
#include <iostream>

#include "core/algorithms.hpp"
#include "platform/generator.hpp"
#include "sim/scheduler.hpp"
#include "util/flags.hpp"
#include "util/strings.hpp"

int main(int argc, char** argv) {
  using namespace hmxp;
  util::Flags flags;
  flags.define("algorithm", "Het", "one of Hom|HomI|Het|ORROML|OMMOML|ODDOML|BMM");
  flags.define("out", "gantt.csv", "CSV output path");
  flags.define("s", "200", "width of B in q-blocks");
  flags.parse_or_exit(argc, argv);
  if (flags.help_requested()) {
    std::cout << flags.usage("Gantt trace exporter");
    return 0;
  }

  const platform::Platform plat = platform::hetero_compute();
  const matrix::Partition part = matrix::Partition::from_blocks(
      100, 20, static_cast<std::size_t>(flags.get_int("s")), 80);
  std::string algorithm;
  try {
    algorithm = core::algorithm_from_name(flags.get_string("algorithm"));
  } catch (const std::invalid_argument& error) {
    std::cerr << "error: " << error.what() << '\n';
    return 1;
  }
  auto scheduler = core::make_scheduler(algorithm, plat, part);
  const sim::RunResult result =
      sim::simulate(*scheduler, plat, part, /*record_trace=*/true);

  const std::string path = flags.get_string("out");
  std::ofstream out(path);
  result.trace.write_gantt_csv(out);
  std::cout << core::algorithm_name(algorithm) << " on " << plat.name()
            << ": makespan " << util::format_duration(result.makespan)
            << ", " << result.trace.comms().size() << " port ops, "
            << result.trace.computes().size() << " computes -> " << path
            << "\n\n";

  // ASCII utilization strips: 60 buckets across the makespan.
  constexpr int kBuckets = 60;
  const auto strip = [&](auto busy_in_bucket, const std::string& label) {
    std::string bar;
    for (int bucket = 0; bucket < kBuckets; ++bucket) {
      const double t0 = result.makespan * bucket / kBuckets;
      const double t1 = result.makespan * (bucket + 1) / kBuckets;
      const double busy = busy_in_bucket(t0, t1) / (t1 - t0);
      bar += busy > 0.75 ? '#' : busy > 0.25 ? '+' : busy > 0.01 ? '.' : ' ';
    }
    std::cout << util::pad_right(label, 10) << '[' << bar << "]\n";
  };

  strip(
      [&](double t0, double t1) {
        double busy = 0.0;
        for (const auto& event : result.trace.comms())
          busy += std::max(0.0, std::min(event.end, t1) -
                                    std::max(event.start, t0));
        return busy;
      },
      "master");
  for (int worker = 0; worker < plat.size(); ++worker) {
    strip(
        [&](double t0, double t1) {
          double busy = 0.0;
          for (const auto& event : result.trace.computes()) {
            if (event.worker != worker) continue;
            busy += std::max(0.0, std::min(event.end, t1) -
                                      std::max(event.start, t0));
          }
          return busy;
        },
        "P" + std::to_string(worker + 1));
  }
  std::cout << "\n('#' busy > 75%, '+' > 25%, '.' > 1%)\n";
  return 0;
}
