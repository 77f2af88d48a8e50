#include "probes.hpp"

#include <algorithm>
#include <functional>
#include <initializer_list>

#include "core/algorithms.hpp"
#include "matrix/gemm.hpp"
#include "model/steady_state.hpp"
#include "runtime/fleet.hpp"
#include "runtime/serde.hpp"
#include "service/client.hpp"
#include "service/daemon.hpp"

namespace hmxp::suite {

TimedScheduler::TimedScheduler(std::unique_ptr<sim::Scheduler> inner,
                               SpanRecorder* spans, int parent,
                               std::uint64_t request_id)
    : inner_(std::move(inner)),
      spans_(spans),
      parent_(parent),
      request_id_(request_id) {}

sim::Decision TimedScheduler::next(const sim::ExecutionView& view) {
  const Clock::time_point begin = Clock::now();
  sim::Decision decision = inner_->next(view);
  const Clock::time_point end = Clock::now();
  const double seconds = seconds_between(begin, end);
  total_seconds_ += seconds;
  call_us_.push_back(seconds * 1e6);
  if (spans_ != nullptr)
    spans_->add("sched.next", begin, end, parent_, request_id_);
  return decision;
}

ProductInputs make_product_inputs(const std::string& algorithm,
                                  const platform::Platform& platform,
                                  const matrix::Partition& partition,
                                  runtime::TransportKind transport,
                                  const std::vector<int>& slowdown,
                                  std::uint64_t data_seed) {
  ProductInputs inputs;
  inputs.algorithm = algorithm;
  inputs.platform = platform;
  inputs.partition = partition;
  inputs.options.transport = transport;
  inputs.options.compute_slowdown = slowdown;
  inputs.options.verify = false;
  inputs.operands = core::generate_operands(partition, data_seed);
  return inputs;
}

runtime::ExecutorReport run_product(const ProductInputs& inputs,
                                    matrix::Matrix& c, bool verify,
                                    double& wall_seconds,
                                    ProductLayerStats* stats,
                                    SpanRecorder* spans,
                                    std::uint64_t request_id) {
  c = inputs.operands.c;
  runtime::ExecutorOptions options = inputs.options;
  options.verify = verify;
  const Clock::time_point begin = Clock::now();
  int root = SpanRecorder::kNoSpan;
  int select = SpanRecorder::kNoSpan;
  int execute = SpanRecorder::kNoSpan;
  if (spans != nullptr) {
    root = spans->begin("core.product", SpanRecorder::kNoSpan, request_id);
    select = spans->begin("core.make_scheduler", root, request_id);
  }
  std::unique_ptr<sim::Scheduler> scheduler = core::make_scheduler(
      inputs.algorithm, inputs.platform, inputs.partition);
  if (spans != nullptr) {
    spans->end(select);
    execute = spans->begin("runtime.execute_online", root, request_id);
  }
  TimedScheduler* timed = nullptr;
  if (stats != nullptr) {
    auto wrapper = std::make_unique<TimedScheduler>(
        std::move(scheduler), spans, execute, request_id);
    timed = wrapper.get();
    scheduler = std::move(wrapper);
  }
  runtime::ExecutorReport report = runtime::execute_online(
      *scheduler, inputs.platform, inputs.partition, inputs.operands.a,
      inputs.operands.b, c, options);
  if (spans != nullptr) {
    spans->end(execute);
    spans->end(root);
  }
  wall_seconds = seconds_between(begin, Clock::now());

  if (stats != nullptr) {
    ++stats->products;
    stats->wall_seconds += wall_seconds;
    stats->sched_seconds += timed->total_seconds();
    stats->next_us.insert(stats->next_us.end(), timed->call_us().begin(),
                          timed->call_us().end());
    stats->decisions += timed->call_us().size();
    const runtime::TransportStats& transport = report.transport_stats;
    stats->serde_seconds += transport.serde_seconds;
    stats->messages += transport.messages_sent + transport.messages_received;
    stats->bytes += transport.bytes_sent + transport.bytes_received;
    stats->pool_allocations += report.buffer_pool.allocations;
    stats->arena_peak_slots =
        std::max(stats->arena_peak_slots, transport.arena_peak_slots);
    const std::vector<int>& slowdown = inputs.options.compute_slowdown;
    for (std::size_t w = 0; w < report.updates_per_worker.size(); ++w)
      stats->slowed_updates +=
          static_cast<double>(report.updates_per_worker[w]) *
          (w < slowdown.size() ? slowdown[w] : 1);
    stats->workers = inputs.platform.size();
  }
  return report;
}

void ProductLayerStats::report(RunResult& result,
                               double block_update_seconds) const {
  if (products == 0) return;
  const auto per_product = [this](double total) {
    return total / static_cast<double>(products);
  };
  result.set("matrix.busy_frac",
             slowed_updates * block_update_seconds /
                 (static_cast<double>(workers) * wall_seconds),
             "frac");
  if (bytes > 0) {
    result.set("runtime.serde_s_per_product", per_product(serde_seconds),
               "s");
    result.set("runtime.bytes_per_product",
               per_product(static_cast<double>(bytes)), "B");
  }
  result.set("runtime.messages_per_product",
             per_product(static_cast<double>(messages)), "count");
  result.set("runtime.master_wait_frac",
             (wall_seconds - sched_seconds - serde_seconds) / wall_seconds,
             "frac");
  result.set("runtime.pool_allocs_per_product",
             per_product(static_cast<double>(pool_allocations)), "count");
  result.set("runtime.arena_peak_slots",
             static_cast<double>(arena_peak_slots), "count");
  result.set("sched.next_us_p50", quantile(next_us, 0.5), "us");
  result.set("sched.next_us_p99", quantile(next_us, 0.99), "us");
  result.set("sched.decisions_per_product",
             per_product(static_cast<double>(decisions)), "count");
  result.set("sched.self_frac", sched_seconds / wall_seconds, "frac");
}

namespace {

/// Calls `body` until both `min_reps` calls and `min_seconds` have
/// passed; returns each call's wall seconds.
std::vector<double> timed_reps(const std::function<void()>& body,
                               std::size_t min_reps, double min_seconds) {
  std::vector<double> seconds;
  const Clock::time_point start = Clock::now();
  while (seconds.size() < min_reps ||
         seconds_between(start, Clock::now()) < min_seconds) {
    const Clock::time_point begin = Clock::now();
    body();
    seconds.push_back(seconds_between(begin, Clock::now()));
  }
  return seconds;
}

/// Median per-call seconds of a sub-microsecond to millisecond call,
/// timed in batches long enough for the clock.
double median_call_seconds(const std::function<void()>& call) {
  std::size_t batch = 1;
  while (true) {
    const Clock::time_point begin = Clock::now();
    for (std::size_t i = 0; i < batch; ++i) call();
    if (seconds_between(begin, Clock::now()) >= 2e-4 || batch >= (1u << 20))
      break;
    batch *= 2;
  }
  const std::vector<double> batches = timed_reps(
      [&] {
        for (std::size_t i = 0; i < batch; ++i) call();
      },
      31, 0.05);
  return median(batches) / static_cast<double>(batch);
}

bool missing_any(const RunResult& result,
                 std::initializer_list<const char*> names) {
  for (const char* name : names)
    if (!result.has(name)) return true;
  return false;
}

void copy_missing(RunResult& into, const RunResult& from) {
  for (const Metric& metric : from.metrics())
    if (!into.has(metric.name)) into.set(metric.name, metric.value, metric.unit);
  for (const std::string& error : from.errors()) into.fail(error);
}

void probe_matrix(RunResult& result, std::size_t q) {
  const double seconds = block_update_seconds(q);
  result.set("matrix.block_update_us", seconds * 1e6, "us");
  result.set("matrix.gflops", matrix::gemm_flops(q, q, q) / seconds / 1e9,
             "GFLOP/s");
}

void probe_serde(RunResult& result, const ProbeShape& shape,
                 std::uint64_t seed) {
  const std::size_t side = std::min(shape.n, 4 * shape.q);
  util::Rng rng(seed);
  const matrix::Matrix a = matrix::Matrix::random(side, shape.q, rng);
  const matrix::Matrix b = matrix::Matrix::random(shape.q, side, rng);
  runtime::OperandMessage message;
  message.k_elems = shape.q;
  message.a = std::vector<double>(a.data(), a.data() + a.size());
  message.b = std::vector<double>(b.data(), b.data() + b.size());

  runtime::BufferPool pool;
  runtime::serde::ByteBuffer frame;
  const double encode = median(timed_reps(
      [&] {
        frame.clear();
        runtime::serde::encode_operand(message, frame);
      },
      50, 0.05));
  const std::uint8_t* body = frame.data() + runtime::serde::kLengthBytes;
  const std::size_t body_size = frame.size() - runtime::serde::kLengthBytes;
  bool round_trip = true;
  const double decode = median(timed_reps(
      [&] {
        runtime::OperandMessage decoded =
            runtime::serde::decode_operand(body, body_size, pool);
        round_trip = round_trip && decoded.a == message.a &&
                     decoded.b == message.b;
        decoded.a.release_to(pool);
        decoded.b.release_to(pool);
      },
      50, 0.05));
  if (!round_trip) result.fail("serde probe: operand frame did not round-trip");
  const double megabytes = static_cast<double>(frame.size()) / 1e6;
  result.set("runtime.serde_encode_MBps", megabytes / encode, "MB/s");
  result.set("runtime.serde_decode_MBps", megabytes / decode, "MB/s");
}

void probe_spawn(RunResult& result, const ProbeShape& shape) {
  runtime::ExecutorOptions options;
  options.transport = shape.transport;
  const std::vector<double> seconds = timed_reps(
      [&] {
        runtime::Fleet fleet(shape.platform, options, shape.n * shape.n);
        fleet.shutdown();
      },
      5, 0.0);
  result.set("runtime.spawn_ms", median(seconds) * 1e3, "ms");
}

void probe_roundtrip(RunResult& result, const ProbeShape& shape,
                     std::uint64_t seed) {
  runtime::ExecutorOptions options;
  options.transport = shape.transport;
  runtime::Fleet fleet(shape.platform, options, shape.q * shape.q);
  const matrix::Partition partition(shape.q, shape.q, shape.q, shape.q);
  core::OperandSet operands = core::generate_operands(partition, seed);
  const runtime::LeaseHooks hooks;
  std::vector<double> seconds;
  for (int rep = 0; rep < 205; ++rep) {
    std::unique_ptr<sim::Scheduler> scheduler =
        core::make_scheduler("FT-ODDOML", shape.platform, partition);
    const Clock::time_point begin = Clock::now();
    runtime::execute_on_fleet(*scheduler, fleet, partition, operands.a,
                              operands.b, operands.c, {0}, hooks);
    if (rep >= 5) seconds.push_back(seconds_between(begin, Clock::now()));
  }
  fleet.shutdown();
  result.set("runtime.roundtrip_us", median(seconds) * 1e6, "us");
}

void probe_model(RunResult& result, const ProbeShape& shape) {
  const std::vector<model::SteadyWorker> workers =
      shape.platform.steady_workers();
  double sink = 0.0;
  const double seconds = median_call_seconds([&] {
    sink += model::solve_bandwidth_centric(workers).throughput;
  });
  if (!(sink > 0.0)) result.fail("model probe: zero steady-state throughput");
  result.set("model.bandwidth_centric_us", seconds * 1e6, "us");
}

void probe_sim(RunResult& result, const ProbeShape& shape) {
  const matrix::Partition partition(shape.n, shape.n, shape.n, shape.q);
  std::size_t decisions = 0;
  const std::vector<double> seconds = timed_reps(
      [&] {
        std::unique_ptr<sim::Scheduler> scheduler =
            core::make_scheduler(shape.algorithm, shape.platform, partition);
        decisions += sim::simulate(*scheduler, shape.platform, partition)
                         .decisions;
      },
      3, 0.1);
  double total = 0.0;
  for (const double s : seconds) total += s;
  result.set("sim.decisions_per_s", static_cast<double>(decisions) / total,
             "1/s");
}

void probe_products(RunResult& result, const ProbeShape& shape,
                    runtime::TransportKind transport, std::uint64_t seed) {
  const ProductInputs inputs = make_product_inputs(
      shape.algorithm, shape.platform,
      matrix::Partition(shape.n, shape.n, shape.n, shape.q), transport,
      shape.slowdown, seed);
  matrix::Matrix c;
  ProductLayerStats stats;
  const Clock::time_point start = Clock::now();
  while (stats.products < 3 ||
         (stats.products < 50 && seconds_between(start, Clock::now()) < 0.3)) {
    double wall = 0.0;
    run_product(inputs, c, false, wall, &stats);
  }
  stats.report(result, block_update_seconds(shape.q));
}

void probe_service(RunResult& result, const ProbeShape& shape,
                   std::uint64_t seed) {
  const std::size_t n = std::min(shape.n, 4 * shape.q);
  service::DaemonConfig config;
  config.platform = shape.service_platform;
  config.executor.transport = shape.transport;
  config.executor.verify = false;
  config.max_payload_doubles = n * n;
  config.max_concurrent_jobs = 2;
  config.calibration_cache = "off";
  service::Daemon daemon(std::move(config));
  const std::uint16_t port = daemon.serve_tcp();
  service::Client client(daemon);
  service::TcpClient tcp(port, n * n);

  std::vector<double> submit_us, run_ms, queue_ms, wire_ms, workers;
  std::size_t rejected = 0;
  const auto record = [&](const service::JobResult& job) {
    if (job.state == service::JobState::kRejected) ++rejected;
    if (job.state != service::JobState::kCompleted) {
      result.fail("service probe: job " +
                  std::string(service::job_state_name(job.state)) + ": " +
                  job.error);
      return false;
    }
    run_ms.push_back(job.wall_seconds * 1e3);
    workers.push_back(job.workers_used);
    return true;
  };
  const std::size_t allocations_before =
      daemon.fleet().pool().stats().allocations;
  service::JobSpec spec;
  spec.n_a = spec.n_ab = spec.n_b = n;
  spec.q = shape.q;
  const Clock::time_point start = Clock::now();
  for (std::uint64_t job = 0;
       job < 20 || (job < 200 && seconds_between(start, Clock::now()) < 0.3);
       ++job) {
    spec.data_seed = seed + job;
    const Clock::time_point begin = Clock::now();
    const std::uint64_t id = client.submit(spec);
    const Clock::time_point submitted = Clock::now();
    const service::JobResult local = client.wait(id);
    const Clock::time_point waited = Clock::now();
    if (record(local)) {
      submit_us.push_back(seconds_between(begin, submitted) * 1e6);
      queue_ms.push_back(
          (seconds_between(submitted, waited) - local.wall_seconds) * 1e3);
    }
    const Clock::time_point sent = Clock::now();
    const service::JobResult remote = tcp.run(spec);
    const double round_trip = seconds_between(sent, Clock::now());
    if (record(remote))
      wire_ms.push_back((round_trip - remote.wall_seconds) * 1e3);
  }
  const std::size_t allocations =
      daemon.fleet().pool().stats().allocations - allocations_before;
  daemon.shutdown();
  if (submit_us.empty() || wire_ms.empty()) return;
  result.set("service.submit_us_p50", quantile(submit_us, 0.5), "us");
  result.set("service.submit_us_p99", quantile(submit_us, 0.99), "us");
  result.set("service.run_ms_p50", median(run_ms), "ms");
  result.set("service.queue_ms_p50", median(queue_ms), "ms");
  result.set("service.wire_ms_p50", median(wire_ms), "ms");
  result.set("service.workers_used_mean", mean(workers), "count");
  result.set("service.pool_allocs_per_job",
             static_cast<double>(allocations) /
                 static_cast<double>(run_ms.size()),
             "count");
  result.set("service.rejected", static_cast<double>(rejected), "count");
}

void probe_grid(RunResult& result, const ProbeShape& shape) {
  const std::size_t blocks = std::clamp<std::size_t>(shape.n / shape.q, 2, 16);
  const matrix::Partition partition =
      matrix::Partition::from_blocks(blocks, blocks, blocks, shape.q);
  const std::vector<core::Algorithm> algorithms = core::paper_algorithms();
  std::vector<double> cell_ms;
  double selection_seconds = 0.0;
  const Clock::time_point start = Clock::now();
  while (cell_ms.empty() || seconds_between(start, Clock::now()) < 0.3) {
    for (const core::Algorithm& algorithm : algorithms) {
      const Clock::time_point begin = Clock::now();
      const core::RunReport report =
          core::run_algorithm(algorithm, shape.platform, partition);
      cell_ms.push_back(seconds_between(begin, Clock::now()) * 1e3);
      selection_seconds += report.selection_wall_seconds;
    }
  }
  result.set("core.cell_ms_p50", quantile(cell_ms, 0.5), "ms");
  result.set("core.cell_ms_p99", quantile(cell_ms, 0.99), "ms");
  result.set("core.selection_s_per_cell",
             selection_seconds / static_cast<double>(cell_ms.size()), "s");
}

}  // namespace

double block_update_seconds(std::size_t q) {
  util::Rng rng(q);
  const matrix::Matrix a = matrix::Matrix::random(q, q, rng);
  const matrix::Matrix b = matrix::Matrix::random(q, q, rng);
  matrix::Matrix c(q, q, 0.0);
  return median_call_seconds(
      [&] { matrix::gemm_auto(a.view(), b.view(), c.view()); });
}

const std::vector<MetricSpec>& per_layer_metrics() {
  static const std::vector<MetricSpec> metrics = {
      {"matrix.block_update_us", "us"},
      {"matrix.gflops", "GFLOP/s"},
      {"matrix.busy_frac", "frac"},
      {"runtime.serde_encode_MBps", "MB/s"},
      {"runtime.serde_decode_MBps", "MB/s"},
      {"runtime.serde_s_per_product", "s"},
      {"runtime.messages_per_product", "count"},
      {"runtime.bytes_per_product", "B"},
      {"runtime.spawn_ms", "ms"},
      {"runtime.roundtrip_us", "us"},
      {"runtime.master_wait_frac", "frac"},
      {"runtime.pool_allocs_per_product", "count"},
      {"runtime.arena_peak_slots", "count"},
      {"sched.next_us_p50", "us"},
      {"sched.next_us_p99", "us"},
      {"sched.decisions_per_product", "count"},
      {"sched.self_frac", "frac"},
      {"service.submit_us_p50", "us"},
      {"service.submit_us_p99", "us"},
      {"service.run_ms_p50", "ms"},
      {"service.queue_ms_p50", "ms"},
      {"service.wire_ms_p50", "ms"},
      {"service.workers_used_mean", "count"},
      {"service.pool_allocs_per_job", "count"},
      {"service.rejected", "count"},
      {"model.bandwidth_centric_us", "us"},
      {"sim.decisions_per_s", "1/s"},
      {"core.cell_ms_p50", "ms"},
      {"core.cell_ms_p99", "ms"},
      {"core.selection_s_per_cell", "s"},
      {"suite.trace_overhead_frac", "frac"},
  };
  return metrics;
}

void fill_layer_metrics(RunResult& result, const ProbeShape& shape,
                        std::uint64_t seed) {
  RunResult probed;
  if (missing_any(result, {"matrix.block_update_us", "matrix.gflops"}))
    probe_matrix(probed, shape.q);
  if (missing_any(result,
                  {"runtime.serde_encode_MBps", "runtime.serde_decode_MBps"}))
    probe_serde(probed, shape, seed);
  if (missing_any(result, {"runtime.spawn_ms"})) probe_spawn(probed, shape);
  if (missing_any(result, {"runtime.roundtrip_us"}))
    probe_roundtrip(probed, shape, seed);
  if (missing_any(result, {"model.bandwidth_centric_us"}))
    probe_model(probed, shape);
  if (missing_any(result, {"sim.decisions_per_s"})) probe_sim(probed, shape);
  if (missing_any(result, {"matrix.busy_frac", "runtime.messages_per_product",
                           "runtime.master_wait_frac",
                           "runtime.pool_allocs_per_product",
                           "runtime.arena_peak_slots", "sched.next_us_p50",
                           "sched.next_us_p99", "sched.decisions_per_product",
                           "sched.self_frac"}))
    probe_products(probed, shape, shape.transport, seed);
  // Serialization is measured where it happens: a workload whose own
  // transport never serializes gets it from the process transport.
  if (missing_any(result, {"runtime.serde_s_per_product",
                           "runtime.bytes_per_product"}) &&
      missing_any(probed, {"runtime.serde_s_per_product",
                           "runtime.bytes_per_product"})) {
    RunResult serialized;
    probe_products(serialized, shape, runtime::TransportKind::kProcess, seed);
    for (const char* name :
         {"runtime.serde_s_per_product", "runtime.bytes_per_product"})
      if (const Metric* metric = serialized.find(name))
        probed.set(metric->name, metric->value, metric->unit);
  }
  if (missing_any(result,
                  {"service.submit_us_p50", "service.submit_us_p99",
                   "service.run_ms_p50", "service.queue_ms_p50",
                   "service.wire_ms_p50", "service.workers_used_mean",
                   "service.pool_allocs_per_job", "service.rejected"}))
    probe_service(probed, shape, seed);
  if (missing_any(result, {"core.cell_ms_p50", "core.cell_ms_p99",
                           "core.selection_s_per_cell"}))
    probe_grid(probed, shape);
  copy_missing(result, probed);
}

}  // namespace hmxp::suite
