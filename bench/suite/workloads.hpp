// The suite's six workloads. Each runs from a seed for a fixed number
// of wall seconds, checks its outputs, and reports the end-to-end
// metrics (always) and, in a traced run, the per-layer metrics.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "probes.hpp"
#include "record.hpp"

namespace hmxp::suite {

struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = 20.0;
  /// Non-null in a traced run: spans of every wrapped call land here.
  SpanRecorder* spans = nullptr;
  bool traced() const { return spans != nullptr; }
};

struct Workload {
  const char* name;
  RunResult (*run)(const RunOptions& options);
};

const std::vector<Workload>& workloads();

/// Every end-to-end metric name and unit, in report order. peak_rss_mb
/// is measured by the caller once the workload has finished.
const std::vector<MetricSpec>& end_to_end_metrics();

}  // namespace hmxp::suite
