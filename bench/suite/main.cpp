// hmxp_suite: runs one workload of the wall-clock benchmark suite.
//
//   hmxp_suite --workload <name> [--seed N] [--seconds S]
//              [--trace-dir DIR] [--out FILE]
//   hmxp_suite --list        workload names, one per line
//   hmxp_suite --prepare     resolve (and cache) the kernel blocking
//
// Prints one "<workload> <metric> <value> <unit>" line per metric, then,
// as the last line, {"correct", "attempted", "failed", "metrics"} with
// the end-to-end metrics (untraced) or the per-layer metrics (with
// --trace-dir, which also writes DIR/spans.<workload>.json). --out
// writes the full result with the host and kernel context. Exits 1 when
// any output is wrong or an operation failed.
#include <malloc.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "matrix/kernel_dispatch.hpp"
#include "matrix/tuning.hpp"
#include "record.hpp"
#include "workloads.hpp"

namespace {

using namespace hmxp::suite;

// Traced runs keep at most this many spans in memory.
constexpr std::size_t kSpanLimit = 50000;
// Longest untimed wait for every CPU to run before set-up starts.
constexpr double kWakeLimitSeconds = 3.0;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  std::string trace_dir;
  std::string out;
  bool list = false;
  bool prepare = false;
};

[[noreturn]] void usage(const std::string& problem) {
  std::cerr << "hmxp_suite: " << problem
            << "\nusage: hmxp_suite --workload <name> [--seed N] "
               "[--seconds S] [--trace-dir DIR] [--out FILE] | --list | "
               "--prepare\n";
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    std::optional<std::string> value;
    if (const auto eq = key.find('='); eq != std::string::npos) {
      value = key.substr(eq + 1);
      key.resize(eq);
    }
    if (key == "--list") {
      args.list = true;
      continue;
    }
    if (key == "--prepare") {
      args.prepare = true;
      continue;
    }
    if (!value) {
      if (i + 1 >= argc) usage("missing value for " + key);
      value = argv[++i];
    }
    try {
      if (key == "--workload") {
        args.workload = *value;
      } else if (key == "--seed") {
        args.seed = std::stoull(*value);
      } else if (key == "--seconds") {
        args.seconds = std::stod(*value);
        if (!(args.seconds > 0)) usage("--seconds must be positive");
      } else if (key == "--trace-dir") {
        args.trace_dir = *value;
      } else if (key == "--out") {
        args.out = *value;
      } else {
        usage("unknown option " + key);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + key + ": " + *value);
    }
  }
  return args;
}

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::ostringstream out;
  out << "{";
  for (std::size_t i = 0; i < metrics.size(); ++i)
    out << (i == 0 ? "" : ", ") << json_string(metrics[i].name)
        << ": {\"value\": " << json_number(metrics[i].value)
        << ", \"unit\": " << json_string(metrics[i].unit) << "}";
  out << "}";
  return out.str();
}

}  // namespace

int main(int argc, char** argv) {
#ifndef NDEBUG
  std::cerr << "hmxp_suite: refusing to measure an unoptimized build; "
               "configure with -DCMAKE_BUILD_TYPE=Release\n";
  return 2;
#endif
  // peak_rss_mb should count live memory. glibc's dynamic mmap threshold
  // instead lets freed matrix-sized blocks linger in per-thread arenas
  // depending on thread timing (product-kernel peak RSS ranged 93-140 MB
  // over identical runs); pinning the threshold at its 128 KiB default
  // turns that adjustment off.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  const Args args = parse(argc, argv);
  namespace matrix = hmxp::matrix;

  if (args.list) {
    for (const Workload& workload : workloads())
      std::cout << workload.name << "\n";
    return 0;
  }
  const matrix::TuneOutcome tune =
      matrix::resolve_blocking(matrix::active_micro_kernel_variant());
  if (args.prepare) {
    std::cerr << "hmxp_suite: kernel " << matrix::packed_kernel_variant()
              << " blocking " << matrix::blocking_to_string(tune.params)
              << " (" << tune.source << "), cache "
              << matrix::tuning_cache_path() << "\n";
    return 0;
  }

  const Workload* workload = nullptr;
  for (const Workload& candidate : workloads())
    if (args.workload == candidate.name) workload = &candidate;
  if (workload == nullptr) usage("unknown workload \"" + args.workload + "\"");

  HostContext host;
  host.nproc = host_nproc();
  host.cpu_model = host_cpu_model();
  host.load_before = load_average();
  host.cpu_wake_s = wake_cpus(kWakeLimitSeconds);

  const bool traced = !args.trace_dir.empty();
  std::optional<SpanRecorder> spans;
  if (traced) spans.emplace(Clock::now(), kSpanLimit);
  RunOptions options;
  options.seed = args.seed;
  options.seconds = args.seconds;
  options.spans = traced ? &*spans : nullptr;

  RunResult result;
  try {
    result = workload->run(options);
    if (traced) {
      std::filesystem::create_directories(args.trace_dir);
      spans->write(args.trace_dir + "/spans." + workload->name + ".json",
                   workload->name);
    }
  } catch (const std::exception& error) {
    std::cerr << "hmxp_suite: " << workload->name << " aborted: "
              << error.what() << "\n";
    return 1;
  }
  result.set("peak_rss_mb", peak_rss_mb(), "MB");
  host.load_after = load_average();

  // The last line carries exactly one metric family.
  std::vector<Metric> reported;
  for (const MetricSpec& spec :
       traced ? per_layer_metrics() : end_to_end_metrics()) {
    const Metric* metric = result.find(spec.name);
    if (metric == nullptr)
      result.fail(std::string("metric ") + spec.name + " was not measured");
    else
      reported.push_back(*metric);
  }

  for (const Metric& metric : result.metrics()) {
    char value[32];
    std::snprintf(value, sizeof(value), "%.6g", metric.value);
    std::cout << workload->name << " " << metric.name << " " << value << " "
              << metric.unit << "\n";
  }
  for (const std::string& error : result.errors())
    std::cerr << "hmxp_suite: " << workload->name << ": " << error << "\n";

  if (!args.out.empty()) {
    const std::filesystem::path out(args.out);
    if (out.has_parent_path())
      std::filesystem::create_directories(out.parent_path());
    std::ofstream file(args.out);
    const matrix::BlockingParams blocking = matrix::active_blocking();
    file << "{\"workload\": " << json_string(workload->name)
         << ", \"seed\": " << args.seed
         << ", \"seconds\": " << json_number(args.seconds)
         << ", \"traced\": " << (traced ? "true" : "false")
         << ",\n \"context\": {\"nproc\": " << host.nproc
         << ", \"cpu_model\": " << json_string(host.cpu_model)
         << ", \"load_before\": " << json_number(host.load_before)
         << ", \"load_after\": " << json_number(host.load_after)
         << ", \"cpu_wake_s\": " << json_number(host.cpu_wake_s)
         << ", \"kernel_variant\": "
         << json_string(matrix::packed_kernel_variant())
         << ", \"blocking\": "
         << json_string(matrix::blocking_to_string(blocking))
         << ", \"blocking_source\": " << json_string(tune.source)
         << ", \"build_type\": \"Release\"},\n \"correct\": "
         << (result.correct() ? "true" : "false")
         << ", \"attempted\": " << result.attempted
         << ", \"failed\": " << result.failed << ", \"errors\": [";
    for (std::size_t i = 0; i < result.errors().size(); ++i)
      file << (i == 0 ? "" : ", ") << json_string(result.errors()[i]);
    file << "],\n \"metrics\": " << metrics_json(result.metrics()) << "}\n";
    if (!file) {
      std::cerr << "hmxp_suite: cannot write " << args.out << "\n";
      return 1;
    }
  }

  std::cout << "{\"correct\": " << (result.correct() ? "true" : "false")
            << ", \"attempted\": " << result.attempted
            << ", \"failed\": " << result.failed
            << ", \"metrics\": " << metrics_json(reported) << "}"
            << std::endl;
  return result.correct() && result.failed == 0 ? 0 : 1;
}
