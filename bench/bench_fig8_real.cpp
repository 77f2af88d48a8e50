// Figure 8 reproduction: the real twenty-worker Lyon platform.
//
// Twenty workers (four homogeneous groups of five P4-class nodes), in
// the August 2007 configuration (all nodes upgraded to 1 GiB) and the
// November 2006 configuration (the 5013-GM and IDE250W groups still at
// 256 MiB). B is 8000x320000 (s = 4000 blocks).
// Paper shape: on the upgraded cluster all algorithms but BMM are close
// and the selecting ones enroll ~11 of 20 workers; on the 2006 cluster
// the memory heterogeneity separates them like Fig. 4, with Het working
// essentially on the 1 GiB workers.
#include "common.hpp"
#include "util/flags.hpp"

using namespace hmxp;

int main(int argc, char** argv) {
  util::Flags flags;
  flags.define("csv", "", "prefix for CSV output files (empty: no CSV)");
  flags.define("s", "4000", "width of B in blocks (paper: 4000)");
  flags.define_bool("quick", false, "use s = 1000 for a fast smoke run");
  flags.parse_or_exit(argc, argv);
  if (flags.help_requested()) {
    std::cout << flags.usage("Figure 8: real platform (20 workers)");
    return 0;
  }
  const std::size_t s = flags.get_bool("quick")
                            ? 1000u
                            : static_cast<std::size_t>(flags.get_int("s"));
  std::optional<std::string> csv;
  if (!flags.get_string("csv").empty()) csv = flags.get_string("csv");
  bench::report_experiment("Fig. 8: real platform (s = " + std::to_string(s) +
                               " blocks)",
                           bench::fig8_instances(s), csv);
  return 0;
}
