#include "common.hpp"

#include "matrix/kernel_dispatch.hpp"
#include "util/csv.hpp"

namespace hmxp::bench {

matrix::Partition paper_partition(std::size_t s_blocks) {
  return matrix::Partition::from_blocks(100, 100, s_blocks, 80);
}

const std::vector<std::size_t>& paper_size_sweep() {
  static const std::vector<std::size_t> sizes = {800, 1000, 1200, 1400, 1600};
  return sizes;
}

namespace {
std::vector<core::Instance> size_sweep_instances(
    const platform::Platform& plat) {
  std::vector<core::Instance> instances;
  for (const std::size_t s : paper_size_sweep()) {
    instances.push_back(core::Instance{
        "s=" + std::to_string(s), plat, paper_partition(s)});
  }
  return instances;
}
}  // namespace

std::vector<core::Instance> fig4_instances() {
  return size_sweep_instances(platform::hetero_memory());
}

std::vector<core::Instance> fig5_instances() {
  return size_sweep_instances(platform::hetero_links());
}

std::vector<core::Instance> fig6_instances() {
  return size_sweep_instances(platform::hetero_compute());
}

std::vector<core::Instance> fig7_instances(std::uint64_t seed) {
  // Two deterministic ratio platforms plus ten seeded random ones; the
  // paper fixes B = 8000x80000 here (s = 1000).
  std::vector<core::Instance> instances;
  const auto part = paper_partition(1000);
  instances.push_back(core::Instance{"ratio-2", platform::fully_hetero(2.0), part});
  instances.push_back(core::Instance{"ratio-4", platform::fully_hetero(4.0), part});
  util::Rng rng(seed);
  for (int i = 1; i <= 10; ++i) {
    util::Rng child = rng.fork();
    instances.push_back(core::Instance{
        "random-" + std::to_string(i), platform::random_platform(child), part});
  }
  return instances;
}

std::vector<core::Instance> fig8_instances(std::size_t s_blocks) {
  const auto part = paper_partition(s_blocks);
  return {
      core::Instance{"aug-2007", platform::real_platform_aug2007(), part},
      core::Instance{"nov-2006", platform::real_platform_nov2006(), part},
  };
}

void report_experiment(const std::string& title,
                       const std::vector<core::Instance>& instances,
                       const std::optional<std::string>& csv_prefix) {
  const auto& algorithms = core::paper_algorithms();
  const auto results = core::run_experiment(instances, algorithms);

  std::cout << "== " << title << " ==\n\n";
  std::cout << "(a) Relative cost (makespan / best makespan):\n";
  core::relative_cost_table(results, algorithms).print(std::cout);
  std::cout << "\n(b) Relative work (makespan x enrolled / best):\n";
  core::relative_work_table(results, algorithms).print(std::cout);
  std::cout << "\nEnrolled workers:\n";
  core::enrolled_table(results, algorithms).print(std::cout);

  // Absolute makespans give the reader the paper's "execution time"
  // sentences ("Het needs about 2000 seconds ...").
  util::Table makespans(
      [&] {
        std::vector<std::string> headers{"instance"};
        for (const auto& algorithm : algorithms)
          headers.push_back(core::algorithm_name(algorithm));
        return headers;
      }());
  makespans.set_align(0, util::Align::kLeft);
  for (const auto& instance : results) {
    auto row = makespans.build_row();
    row.cell(instance.instance_name);
    for (const auto& report : instance.reports)
      row.cell(report.result.makespan, 1);
    row.done();
  }
  std::cout << "\nAbsolute makespans (simulated seconds):\n";
  makespans.print(std::cout);
  std::cout << '\n';

  if (csv_prefix) {
    util::CsvWriter csv(*csv_prefix + ".csv");
    std::vector<std::string> header{"instance", "algorithm",
                                    "makespan_s",  "relative_cost",
                                    "relative_work", "enrolled",
                                    "comm_blocks", "ccr",
                                    "bound_over_achieved"};
    csv.header(header);
    for (const auto& instance : results) {
      for (std::size_t a = 0; a < algorithms.size(); ++a) {
        const auto& report = instance.reports[a];
        csv.build_row()
            .cell(instance.instance_name)
            .cell(report.algorithm_label)
            .cell(report.result.makespan)
            .cell(instance.relative_cost[a])
            .cell(instance.relative_work[a])
            .cell(static_cast<long long>(report.result.workers_enrolled))
            .cell(static_cast<long long>(report.result.comm_blocks))
            .cell(report.result.ccr())
            .cell(report.bound_over_achieved)
            .done();
      }
    }
    std::cout << "[csv] wrote " << *csv_prefix << ".csv\n\n";
  }
}

std::optional<BenchArgs> parse_bench_args(int argc, char** argv,
                                          const std::string& description) {
  util::Flags flags;
  flags.define("csv", "", "prefix for CSV output files (empty: no CSV)");
  flags.define_bool("quick", false, "reduced sweep for smoke runs");
  flags.define("kernel", "",
               "pin the GEMM dispatch: naive|tiled|simd|portable|avx2|"
               "avx512 (empty: auto; equivalent to HMXP_FORCE_KERNEL)");
  flags.parse_or_exit(argc, argv);
  if (flags.help_requested()) {
    std::cout << flags.usage(description);
    return std::nullopt;
  }
  BenchArgs args;
  const std::string prefix = flags.get_string("csv");
  if (!prefix.empty()) args.csv_prefix = prefix;
  args.quick = flags.get_bool("quick");
  const std::string kernel = flags.get_string("kernel");
  // apply_kernel_pin throws listing every valid name (tier and
  // micro-kernel variant alike) on a typo or an unsupported ISA.
  if (!kernel.empty()) matrix::apply_kernel_pin(kernel);
  return args;
}

}  // namespace hmxp::bench
