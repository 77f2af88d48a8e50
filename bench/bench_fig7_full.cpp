// Figure 7 reproduction: fully heterogeneous platforms.
//
// Twelve platforms: link/speed/memory each taking two values with ratio
// 2 (first column) or 4 (second), the eight workers enumerating the
// combinations; then ten random platforms with per-axis ratios up to 4.
// B is 8000x80000 (s = 1000).
// Paper shape: Het best on all but ~2 platforms and within ~9% there;
// every other algorithm is at least once >40% off; ODDOML reasonable in
// cost but poor in work.
#include "common.hpp"
#include "util/flags.hpp"

using namespace hmxp;

int main(int argc, char** argv) {
  util::Flags flags;
  flags.define("csv", "", "prefix for CSV output files (empty: no CSV)");
  flags.define_bool("quick", false, "only the two ratio platforms");
  flags.define("seed", "20080220", "seed for the ten random platforms");
  flags.parse_or_exit(argc, argv);
  if (flags.help_requested()) {
    std::cout << flags.usage("Figure 7: fully heterogeneous platforms");
    return 0;
  }
  auto instances = bench::fig7_instances(
      static_cast<std::uint64_t>(flags.get_int("seed")));
  if (flags.get_bool("quick"))
    instances.erase(instances.begin() + 2, instances.end());
  std::optional<std::string> csv;
  if (!flags.get_string("csv").empty()) csv = flags.get_string("csv");
  std::cout << "[seed " << flags.get_int("seed") << " for random platforms]\n";
  bench::report_experiment("Fig. 7: fully heterogeneous platforms", instances,
                           csv);
  return 0;
}
