// Per-layer measurement: the scheduler decorator the traced runs wrap
// around live policies, the product runner every product workload and
// probe shares, and the layer probes that supply each per-layer metric
// a workload does not exercise itself.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/run.hpp"
#include "matrix/partition.hpp"
#include "platform/platform.hpp"
#include "record.hpp"
#include "runtime/executor.hpp"
#include "sim/scheduler.hpp"

namespace hmxp::suite {

/// Wraps a live policy and times every next() call inside whichever
/// loop drives it (the runtime's master loop or the simulator), one
/// span per call under `parent`.
class TimedScheduler final : public sim::Scheduler {
 public:
  TimedScheduler(std::unique_ptr<sim::Scheduler> inner, SpanRecorder* spans,
                 int parent, std::uint64_t request_id);
  std::string name() const override { return inner_->name(); }
  sim::Decision next(const sim::ExecutionView& view) override;

  double total_seconds() const { return total_seconds_; }
  const std::vector<double>& call_us() const { return call_us_; }

 private:
  std::unique_ptr<sim::Scheduler> inner_;
  SpanRecorder* spans_;
  int parent_;
  std::uint64_t request_id_;
  double total_seconds_ = 0.0;
  std::vector<double> call_us_;
};

/// Fixed inputs of one standalone product workload or probe.
struct ProductInputs {
  std::string algorithm;
  platform::Platform platform;
  matrix::Partition partition{1, 1, 1, 1};
  runtime::ExecutorOptions options;  // transport + compute_slowdown
  core::OperandSet operands;         // A, B and the initial C
};

ProductInputs make_product_inputs(const std::string& algorithm,
                                  const platform::Platform& platform,
                                  const matrix::Partition& partition,
                                  runtime::TransportKind transport,
                                  const std::vector<int>& slowdown,
                                  std::uint64_t data_seed);

/// Layer counters summed over traced products.
struct ProductLayerStats {
  std::size_t products = 0;
  double wall_seconds = 0.0;
  double sched_seconds = 0.0;
  std::vector<double> next_us;
  std::size_t decisions = 0;
  double serde_seconds = 0.0;
  std::size_t messages = 0;
  std::size_t bytes = 0;
  std::size_t pool_allocations = 0;
  std::size_t arena_peak_slots = 0;
  double slowed_updates = 0.0;  // sum over workers of updates x slowdown
  int workers = 0;

  /// Sets runtime.*, sched.* and matrix.busy_frac. The serialization
  /// metrics are set only when the transport serialized anything.
  void report(RunResult& result, double block_update_seconds) const;
};

/// Runs one product into `c` (reset to the initial C first, untimed).
/// Returns the executor report; `wall_seconds` covers scheduler build
/// plus execute_online. With `stats`, the policy is wrapped in a
/// TimedScheduler and spans are recorded under one root span.
runtime::ExecutorReport run_product(const ProductInputs& inputs,
                                    matrix::Matrix& c, bool verify,
                                    double& wall_seconds,
                                    ProductLayerStats* stats = nullptr,
                                    SpanRecorder* spans = nullptr,
                                    std::uint64_t request_id = 0);

/// Median wall seconds of one q x q x q gemm_auto block update.
double block_update_seconds(std::size_t q);

/// The parameters a workload's layer probes run at.
struct ProbeShape {
  runtime::TransportKind transport = runtime::TransportKind::kThread;
  platform::Platform platform;        // standalone products, sim, model
  platform::Platform service_platform;  // probe daemon
  std::vector<int> slowdown;
  std::size_t n = 0;  // element side of the representative product
  std::size_t q = 0;
  std::string algorithm;
};

/// Every per-layer metric name and unit, in report order.
struct MetricSpec {
  const char* name;
  const char* unit;
};
const std::vector<MetricSpec>& per_layer_metrics();

/// Runs the probes behind every per-layer metric `result` lacks and
/// copies their values in; metrics the workload measured live stay.
void fill_layer_metrics(RunResult& result, const ProbeShape& shape,
                        std::uint64_t seed);

}  // namespace hmxp::suite
