#include "workloads.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <iterator>
#include <memory>
#include <thread>

#include "core/algorithms.hpp"
#include "core/experiment.hpp"
#include "matrix/gemm.hpp"
#include "model/steady_state.hpp"
#include "platform/generator.hpp"
#include "runtime/fleet.hpp"
#include "service/client.hpp"
#include "service/daemon.hpp"
#include "util/rng.hpp"

namespace hmxp::suite {

namespace {

// Set-up is repeated, at least this many times and for this long, and
// its median reported. One slow fork or page fault, or a second in which
// the host takes CPUs away, then does not decide setup_s: with 9 set-ups
// and no time floor, the whole set-up phase of a service workload took
// 30 ms, and setup_s spread by 12-24% over seeds on every workload.
constexpr std::size_t kSetupReps = 9;
constexpr double kSetupSeconds = 3.0;
// Sampled service jobs are checked against a naive product.
constexpr double kServiceTolerance = 1e-9;

/// Times `set_up` repeatedly (once in a traced run), calling the untimed
/// `tear_down` before each repetition; returns each set-up's seconds.
template <typename TearDown, typename SetUp>
std::vector<double> time_setups(const RunOptions& options, TearDown tear_down,
                                SetUp set_up) {
  std::vector<double> seconds;
  const Clock::time_point start = Clock::now();
  do {
    tear_down();
    const Clock::time_point begin = Clock::now();
    set_up();
    seconds.push_back(seconds_between(begin, Clock::now()));
  } while (!options.traced() &&
           (seconds.size() < kSetupReps ||
            seconds_between(start, Clock::now()) < kSetupSeconds));
  return seconds;
}

/// Load comes from one process with at most this many client threads or
/// connections.
int client_limit() { return static_cast<int>(std::min(host_nproc(), 4u)); }

/// The fixed heterogeneous star of every runtime workload: distinct link
/// cost, update cost and memory per worker. Products get memories whose
/// chunk sides (mu = 6, 5, 4, 3) split C across all four workers; the
/// service gets memories large enough that admission, which prices the
/// steady-state working set against calibrated speeds, never rejects.
platform::Platform het4(bool service) {
  const model::Time c[4] = {0.010, 0.012, 0.016, 0.020};
  const model::Time w[4] = {0.002, 0.0022, 0.004, 0.006};
  const model::BlockCount product_m[4] = {60, 45, 32, 21};
  const model::BlockCount service_m[4] = {1000000, 900000, 800000, 700000};
  std::vector<platform::WorkerSpec> workers;
  for (int i = 0; i < 4; ++i)
    workers.push_back(platform::WorkerSpec{
        c[i], w[i], service ? service_m[i] : product_m[i],
        "het4-" + std::to_string(i)});
  return platform::Platform(service ? "het4-service" : "het4",
                            std::move(workers));
}

/// Wall time of every timed operation of one measurement window.
struct Window {
  std::vector<double> latency_s;
  double seconds = 0.0;  // window start to the last operation's end
};

Clock::time_point deadline_after(double seconds) {
  return Clock::now() + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(seconds));
}

/// A traced run splits its time: an untraced half for the overhead
/// baseline, then a traced half for the per-layer metrics.
double window_seconds(const RunOptions& options) {
  return options.traced() ? std::max(0.5, options.seconds / 2)
                          : options.seconds;
}

void report_end_to_end(RunResult& result, const std::vector<double>& setups,
                       const Window& window, double tail,
                       double bound_ratio) {
  result.set("setup_s", median(setups), "s");
  result.set("ops_per_s",
             static_cast<double>(window.latency_s.size()) / window.seconds,
             "1/s");
  result.set("op_p50_ms", quantile(window.latency_s, 0.5) * 1e3, "ms");
  result.set("op_tail_ms", quantile(window.latency_s, tail) * 1e3, "ms");
  result.set("bound_ratio_mean", bound_ratio, "ratio");
  result.set("op_samples", static_cast<double>(window.latency_s.size()),
             "count");
}

void report_trace_overhead(RunResult& result, const Window& plain,
                           const Window& traced) {
  result.set("suite.trace_overhead_frac",
             median(traced.latency_s) / median(plain.latency_s) - 1.0,
             "frac");
}

void report_failures(RunResult& result) {
  result.set("failed_frac",
             result.attempted == 0 ? 1.0
                                   : static_cast<double>(result.failed) /
                                         static_cast<double>(result.attempted),
             "frac");
}

/// Simulated schedule quality of `algorithm` on one instance: the
/// steady-state bound over the achieved throughput (>= 1, lower is
/// closer to the bound).
double simulated_bound_ratio(const std::string& algorithm,
                             const platform::Platform& platform,
                             const matrix::Partition& partition) {
  return core::run_algorithm(algorithm, platform, partition)
      .bound_over_achieved;
}

// ---- product workloads ------------------------------------------------------

struct ProductWorkload {
  std::string algorithm;
  platform::Platform platform;
  std::size_t n = 0;
  std::size_t q = 0;
  runtime::TransportKind transport = runtime::TransportKind::kThread;
  std::vector<int> slowdown;
};

Window product_window(const ProductInputs& inputs, matrix::Matrix& c,
                      const matrix::Matrix& reference, double seconds,
                      RunResult& result, ProductLayerStats* stats,
                      SpanRecorder* spans) {
  Window window;
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline = deadline_after(seconds);
  std::uint64_t request = 0;
  do {
    ++result.attempted;
    double wall = 0.0;
    try {
      run_product(inputs, c, false, wall, stats, spans, request++);
      window.latency_s.push_back(wall);
    } catch (const std::exception& error) {
      ++result.failed;
      result.fail(std::string("product failed: ") + error.what());
    }
  } while (Clock::now() < deadline);
  window.seconds = seconds_between(start, Clock::now());
  if (!(c == reference))
    result.fail("last timed C is not bit-for-bit equal to the verified "
                "warm-up C");
  return window;
}

RunResult run_products(const RunOptions& options,
                       const ProductWorkload& spec) {
  RunResult result;
  const matrix::Partition partition(spec.n, spec.n, spec.n, spec.q);
  ProductInputs inputs;
  matrix::Matrix c;
  const std::vector<double> setups = time_setups(
      options, [&] { inputs = ProductInputs{}; },
      [&] {
        matrix::current_kernel_config();
        inputs = make_product_inputs(spec.algorithm, spec.platform, partition,
                                     spec.transport, spec.slowdown,
                                     options.seed);
        double wall = 0.0;
        run_product(inputs, c, false, wall);
      });

  double wall = 0.0;
  const runtime::ExecutorReport warm = run_product(inputs, c, true, wall);
  if (!warm.verified) result.fail("warm-up product was not verified");
  const matrix::Matrix reference = c;

  const Window plain = product_window(inputs, c, reference,
                                      window_seconds(options), result,
                                      nullptr, nullptr);
  report_end_to_end(result, setups, plain, 0.9,
                    simulated_bound_ratio(spec.algorithm, spec.platform,
                                          partition));
  if (options.traced()) {
    ProductLayerStats stats;
    const Window traced =
        product_window(inputs, c, reference, window_seconds(options), result,
                       &stats, options.spans);
    stats.report(result, block_update_seconds(spec.q));
    report_trace_overhead(result, plain, traced);
    fill_layer_metrics(result,
                       ProbeShape{spec.transport, spec.platform, het4(true),
                                  spec.slowdown, spec.n, spec.q,
                                  spec.algorithm},
                       options.seed);
  }
  report_failures(result);
  return result;
}

RunResult product_kernel(const RunOptions& options) {
  return run_products(options, ProductWorkload{"ODDOML", het4(false), 1280, 80,
                                               runtime::TransportKind::kThread,
                                               {1, 1, 2, 3}});
}

ProductWorkload stream(runtime::TransportKind transport) {
  return ProductWorkload{"ODDOML",
                         platform::Platform::homogeneous(4, 0.01, 0.002, 40),
                         800,
                         16,
                         transport,
                         {}};
}

RunResult stream_process(const RunOptions& options) {
  return run_products(options, stream(runtime::TransportKind::kProcess));
}

RunResult stream_tcp(const RunOptions& options) {
  return run_products(options, stream(runtime::TransportKind::kTcp));
}

// ---- service workloads ------------------------------------------------------

/// One job class of a service workload.
struct JobClass {
  std::vector<std::size_t> sides;  // n drawn uniformly from these
  std::size_t q = 16;
  std::size_t sample_every = 0;    // keep every k-th result for checking
};

service::JobSpec draw_job(const JobClass& job_class, util::Rng& rng) {
  service::JobSpec spec;
  spec.algorithm = "FT-ODDOML";
  spec.n_a = spec.n_ab = spec.n_b =
      job_class.sides[rng.index(job_class.sides.size())];
  spec.q = job_class.q;
  spec.data_seed = rng();
  return spec;
}

/// What one client thread saw during a window.
struct ClientLog {
  std::vector<double> latency_s;
  std::vector<double> submit_us;
  std::vector<double> queue_ms;
  std::vector<double> run_ms;
  std::vector<double> wire_ms;
  std::vector<double> workers;
  double block_updates_s = 0.0;  // updates x block-update seconds
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::size_t rejected = 0;
  std::vector<std::string> errors;
  std::vector<service::JobResult> samples;
  std::vector<service::JobSpec> sample_specs;

  /// Books one finished job; false if it did not complete.
  bool record(const service::JobSpec& spec, service::JobResult& job,
              double block_seconds, std::size_t sample_every) {
    ++attempted;
    if (job.state != service::JobState::kCompleted) {
      ++failed;
      if (job.state == service::JobState::kRejected) ++rejected;
      if (errors.size() < 3)
        errors.push_back(std::string("job ") +
                         service::job_state_name(job.state) + ": " +
                         job.error);
      return false;
    }
    run_ms.push_back(job.wall_seconds * 1e3);
    workers.push_back(job.workers_used);
    block_updates_s +=
        static_cast<double>(job.updates_performed) * block_seconds;
    if (sample_every > 0 && attempted % sample_every == 1) {
      sample_specs.push_back(spec);
      samples.push_back(std::move(job));
    }
    return true;
  }
};

void check_samples(RunResult& result, const std::vector<ClientLog>& logs) {
  for (const ClientLog& log : logs) {
    for (std::size_t i = 0; i < log.samples.size(); ++i) {
      const service::JobSpec& spec = log.sample_specs[i];
      const matrix::Partition partition(spec.n_a, spec.n_ab, spec.n_b,
                                        spec.q);
      core::OperandSet operands =
          core::generate_operands(partition, spec.data_seed);
      matrix::gemm_naive(operands.a.view(), operands.b.view(),
                         operands.c.view());
      const matrix::Matrix& c = log.samples[i].c;
      if (c.rows() != operands.c.rows() || c.cols() != operands.c.cols() ||
          matrix::Matrix::max_abs_diff(c, operands.c) > kServiceTolerance)
        result.fail("service job (n=" + std::to_string(spec.n_a) +
                    ", seed=" + std::to_string(spec.data_seed) +
                    ") returned a wrong C");
    }
  }
}

/// Runs `clients` closed-loop client threads until the deadline and
/// merges their logs into `result`'s counts.
template <typename ClientBody>
Window client_window(int clients, double seconds, RunResult& result,
                     std::vector<ClientLog>& logs, ClientBody body) {
  logs.assign(static_cast<std::size_t>(clients), ClientLog{});
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline = deadline_after(seconds);
  std::vector<std::thread> threads;
  for (int t = 0; t < clients; ++t)
    threads.emplace_back([&, t] {
      try {
        body(t, deadline, logs[static_cast<std::size_t>(t)]);
      } catch (const std::exception& error) {
        logs[static_cast<std::size_t>(t)].errors.push_back(error.what());
        ++logs[static_cast<std::size_t>(t)].failed;
      }
    });
  for (std::thread& thread : threads) thread.join();
  Window window;
  window.seconds = seconds_between(start, Clock::now());
  for (const ClientLog& log : logs) {
    result.attempted += log.attempted;
    result.failed += log.failed;
    for (const std::string& error : log.errors) result.fail(error);
  }
  return window;
}

std::vector<double> gather(const std::vector<ClientLog>& logs,
                           std::vector<double> ClientLog::*field,
                           std::size_t first = 0,
                           std::size_t last = static_cast<std::size_t>(-1)) {
  std::vector<double> merged;
  for (std::size_t i = first; i < logs.size() && i < last; ++i)
    merged.insert(merged.end(), (logs[i].*field).begin(),
                  (logs[i].*field).end());
  return merged;
}

/// Fleet counters sampled at the quiescent points around a window.
struct FleetCounters {
  runtime::TransportStats transport;
  std::size_t pool_allocations = 0;

  static FleetCounters read(runtime::Fleet& fleet) {
    return FleetCounters{fleet.transport_stats(),
                         fleet.pool().stats().allocations};
  }
};

/// Live per-layer metrics of a service window (jobs counted in `logs`).
void report_service_layers(RunResult& result,
                           const std::vector<ClientLog>& logs,
                           const Window& window, const FleetCounters& before,
                           const FleetCounters& after, int workers) {
  std::size_t jobs = 0;
  std::size_t rejected = 0;
  double busy = 0.0;
  for (const ClientLog& log : logs) {
    jobs += log.run_ms.size();
    rejected += log.rejected;
    busy += log.block_updates_s;
  }
  if (jobs == 0) return;
  const double per_job = 1.0 / static_cast<double>(jobs);
  const auto delta = [](std::size_t end, std::size_t begin) {
    return static_cast<double>(end - begin);
  };
  result.set("service.run_ms_p50", median(gather(logs, &ClientLog::run_ms)),
             "ms");
  result.set("service.workers_used_mean",
             mean(gather(logs, &ClientLog::workers)), "count");
  result.set("service.pool_allocs_per_job",
             delta(after.pool_allocations, before.pool_allocations) * per_job,
             "count");
  result.set("service.rejected", static_cast<double>(rejected), "count");
  result.set("runtime.pool_allocs_per_product",
             delta(after.pool_allocations, before.pool_allocations) * per_job,
             "count");
  result.set("runtime.messages_per_product",
             (delta(after.transport.messages_sent,
                    before.transport.messages_sent) +
              delta(after.transport.messages_received,
                    before.transport.messages_received)) *
                 per_job,
             "count");
  const double bytes =
      delta(after.transport.bytes_sent, before.transport.bytes_sent) +
      delta(after.transport.bytes_received, before.transport.bytes_received);
  if (bytes > 0) {
    result.set("runtime.bytes_per_product", bytes * per_job, "B");
    result.set(
        "runtime.serde_s_per_product",
        (after.transport.serde_seconds - before.transport.serde_seconds) *
            per_job,
        "s");
  }
  result.set("runtime.arena_peak_slots",
             static_cast<double>(after.transport.arena_peak_slots), "count");
  result.set("matrix.busy_frac", busy / (workers * window.seconds), "frac");
}

std::unique_ptr<service::Daemon> make_daemon(runtime::TransportKind transport,
                                             std::size_t max_payload_doubles,
                                             int concurrent_jobs) {
  service::DaemonConfig config;
  config.platform = het4(true);
  config.executor.transport = transport;
  config.executor.verify = false;
  config.max_payload_doubles = max_payload_doubles;
  config.max_concurrent_jobs = static_cast<std::size_t>(concurrent_jobs);
  config.queue_capacity = 64;
  config.calibration_cache = "off";  // set-up never reads a user cache
  return std::make_unique<service::Daemon>(std::move(config));
}

RunResult service_small(const RunOptions& options) {
  RunResult result;
  const int clients = client_limit();
  const JobClass small{{32, 48, 64}, 16, 512};
  const double block_seconds = block_update_seconds(small.q);

  std::unique_ptr<service::Daemon> daemon;
  const std::vector<double> setups = time_setups(
      options, [&] { daemon.reset(); },
      [&] {
        matrix::current_kernel_config();
        daemon =
            make_daemon(runtime::TransportKind::kThread, 64 * 64, clients);
        service::Client client(*daemon);
        util::Rng rng(options.seed);
        for (int job = 0; job < 32; ++job) {
          if (client.run(draw_job(small, rng)).state !=
              service::JobState::kCompleted)
            result.fail("warm-up service job did not complete");
        }
      });

  std::uint64_t window_index = 0;
  const auto run_window = [&](std::vector<ClientLog>& logs,
                              SpanRecorder* spans) {
    const std::uint64_t stream = options.seed * 1000003 + 101 * window_index++;
    return client_window(
        clients, window_seconds(options), result, logs,
        [&](int t, Clock::time_point deadline, ClientLog& log) {
          util::Rng rng(stream + static_cast<std::uint64_t>(t));
          service::Client client(*daemon);
          std::uint64_t request = static_cast<std::uint64_t>(t) << 32;
          do {
            const service::JobSpec spec = draw_job(small, rng);
            const Clock::time_point begin = Clock::now();
            const std::uint64_t id = client.submit(spec);
            const Clock::time_point submitted = Clock::now();
            service::JobResult job = client.wait(id);
            const Clock::time_point end = Clock::now();
            if (spans != nullptr) {
              const int root =
                  spans->add("service.job", begin, end, SpanRecorder::kNoSpan,
                             request);
              spans->add("service.submit", begin, submitted, root, request);
              spans->add("service.wait", submitted, end, root, request);
              ++request;
            }
            const double run_s = job.wall_seconds;
            if (log.record(spec, job, block_seconds, small.sample_every)) {
              log.latency_s.push_back(seconds_between(begin, end));
              log.submit_us.push_back(seconds_between(begin, submitted) *
                                      1e6);
              log.queue_ms.push_back(
                  (seconds_between(submitted, end) - run_s) * 1e3);
            }
          } while (Clock::now() < deadline);
        });
  };

  std::vector<ClientLog> logs;
  Window plain = run_window(logs, nullptr);
  plain.latency_s = gather(logs, &ClientLog::latency_s);
  check_samples(result, logs);
  const matrix::Partition typical(48, 48, 48, small.q);
  report_end_to_end(result, setups, plain, 0.99,
                    simulated_bound_ratio("FT-ODDOML", het4(true), typical));

  if (options.traced()) {
    const FleetCounters before = FleetCounters::read(daemon->fleet());
    Window traced = run_window(logs, options.spans);
    traced.latency_s = gather(logs, &ClientLog::latency_s);
    const FleetCounters after = FleetCounters::read(daemon->fleet());
    check_samples(result, logs);
    report_service_layers(result, logs, traced, before, after,
                          daemon->fleet().size());
    const std::vector<double> submit_us = gather(logs, &ClientLog::submit_us);
    result.set("service.submit_us_p50", quantile(submit_us, 0.5), "us");
    result.set("service.submit_us_p99", quantile(submit_us, 0.99), "us");
    result.set("service.queue_ms_p50",
               median(gather(logs, &ClientLog::queue_ms)), "ms");
    report_trace_overhead(result, plain, traced);
  }
  daemon->shutdown();
  if (options.traced())
    fill_layer_metrics(result,
                       ProbeShape{runtime::TransportKind::kThread, het4(false),
                                  het4(true), {}, 48, small.q, "FT-ODDOML"},
                       options.seed);
  report_failures(result);
  return result;
}

RunResult service_mixed_tcp(const RunOptions& options) {
  RunResult result;
  // Two connections send small jobs, one sends large jobs whose C rides
  // inline on the wire (384^2 doubles, about 1.2 MB).
  const JobClass small{{48}, 16, 2048};
  const JobClass large{{384}, 32, 128};
  constexpr int kConnections = 3;
  constexpr std::size_t kMaxPayload = 384 * 384;
  const double small_block_s = block_update_seconds(small.q);
  const double large_block_s = block_update_seconds(large.q);
  const auto job_class = [&](int connection) -> const JobClass& {
    return connection < kConnections - 1 ? small : large;
  };

  std::unique_ptr<service::Daemon> daemon;
  std::vector<std::unique_ptr<service::TcpClient>> connections;
  const std::vector<double> setups = time_setups(
      options,
      [&] {
        connections.clear();
        daemon.reset();
      },
      [&] {
        matrix::current_kernel_config();
        daemon = make_daemon(runtime::TransportKind::kShm, kMaxPayload,
                             kConnections);
        const std::uint16_t port = daemon->serve_tcp();
        util::Rng rng(options.seed);
        for (int t = 0; t < kConnections; ++t) {
          connections.push_back(
              std::make_unique<service::TcpClient>(port, kMaxPayload));
          for (int job = 0; job < (t < kConnections - 1 ? 16 : 2); ++job)
            if (connections.back()->run(draw_job(job_class(t), rng)).state !=
                service::JobState::kCompleted)
              result.fail("warm-up service job did not complete");
        }
      });

  std::uint64_t window_index = 0;
  const auto run_window = [&](std::vector<ClientLog>& logs,
                              SpanRecorder* spans) {
    const std::uint64_t stream = options.seed * 1000003 + 101 * window_index++;
    return client_window(
        kConnections, window_seconds(options), result, logs,
        [&](int t, Clock::time_point deadline, ClientLog& log) {
          const JobClass& jobs = job_class(t);
          const double block_seconds =
              t < kConnections - 1 ? small_block_s : large_block_s;
          util::Rng rng(stream + static_cast<std::uint64_t>(t));
          service::TcpClient& client = *connections[static_cast<std::size_t>(t)];
          std::uint64_t request = static_cast<std::uint64_t>(t) << 32;
          do {
            const service::JobSpec spec = draw_job(jobs, rng);
            const Clock::time_point begin = Clock::now();
            service::JobResult job = client.run(spec);
            const Clock::time_point end = Clock::now();
            if (spans != nullptr)
              spans->add("service.tcp_run", begin, end, SpanRecorder::kNoSpan,
                         request++);
            const double run_s = job.wall_seconds;
            if (log.record(spec, job, block_seconds, jobs.sample_every)) {
              log.latency_s.push_back(seconds_between(begin, end));
              log.wire_ms.push_back((seconds_between(begin, end) - run_s) *
                                    1e3);
            }
          } while (Clock::now() < deadline);
        });
  };

  // Latency percentiles are over the small class, the one head-of-line
  // blocking behind large jobs would hurt; throughput counts every job.
  const auto small_latencies = [&](const std::vector<ClientLog>& logs) {
    return gather(logs, &ClientLog::latency_s, 0, kConnections - 1);
  };
  std::vector<ClientLog> logs;
  Window plain = run_window(logs, nullptr);
  plain.latency_s = small_latencies(logs);
  const std::size_t large_jobs = logs.back().latency_s.size();
  check_samples(result, logs);
  const double bound_ratio =
      (2 * simulated_bound_ratio("FT-ODDOML", het4(true),
                                 matrix::Partition(48, 48, 48, small.q)) +
       simulated_bound_ratio("FT-ODDOML", het4(true),
                             matrix::Partition(384, 384, 384, large.q))) /
      3;
  report_end_to_end(result, setups, plain, 0.99, bound_ratio);
  result.set("ops_per_s",
             static_cast<double>(plain.latency_s.size() + large_jobs) /
                 plain.seconds,
             "1/s");
  if (large_jobs > 0)
    result.set("large_job_p50_ms", median(logs.back().latency_s) * 1e3, "ms");

  if (options.traced()) {
    const FleetCounters before = FleetCounters::read(daemon->fleet());
    Window traced = run_window(logs, options.spans);
    traced.latency_s = small_latencies(logs);
    const FleetCounters after = FleetCounters::read(daemon->fleet());
    check_samples(result, logs);
    report_service_layers(result, logs, traced, before, after,
                          daemon->fleet().size());
    result.set("service.run_ms_p50",
               median(gather(logs, &ClientLog::run_ms, 0, kConnections - 1)),
               "ms");
    result.set("service.wire_ms_p50",
               median(gather(logs, &ClientLog::wire_ms, 0, kConnections - 1)),
               "ms");
    report_trace_overhead(result, plain, traced);
  }
  connections.clear();
  daemon->shutdown();
  if (options.traced())
    fill_layer_metrics(result,
                       ProbeShape{runtime::TransportKind::kShm, het4(false),
                                  het4(true), {}, 48, small.q, "FT-ODDOML"},
                       options.seed);
  report_failures(result);
  return result;
}

// ---- sim-grid ---------------------------------------------------------------

// Many small instances rather than a few large ones: the grid's mean
// schedule quality and sweep time then barely depend on which platforms
// a seed draws (1.6% quartile spread over seeds, against 9% for six
// 40x200x40-block instances).
constexpr int kGridInstances = 128;
// The sweep leaves CPUs free: with a thread on every CPU, a CPU the host
// takes away stalls the sweep, and 2 s sweep rates spread by 17.5%
// (quartile distance over median) on a 4-CPU virtual machine, against
// 10% with two threads.
constexpr unsigned kGridThreads = 2;
// A 15 s window holds about 65 sweeps: p80 is the highest quantile with
// ten of them beyond it.
constexpr double kGridTail = 0.8;

std::vector<core::Instance> grid_instances(std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<core::Instance> instances;
  for (int i = 0; i < kGridInstances; ++i)
    instances.push_back(core::Instance{
        "random-" + std::to_string(i), platform::random_platform(rng, 8),
        matrix::Partition::from_blocks(20, 100, 20, 80)});
  return instances;
}

/// Every cell error-free, achieved throughput within the steady-state
/// bound, and makespans identical to the reference sweep (the engine is
/// deterministic, so any difference is a bug).
void check_sweep(RunResult& result,
                 const std::vector<core::InstanceResults>& sweep,
                 const std::vector<core::InstanceResults>& reference) {
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    for (std::size_t a = 0; a < sweep[i].reports.size(); ++a) {
      const std::string cell =
          sweep[i].instance_name + "/" + sweep[i].reports[a].algorithm;
      if (!sweep[i].cell_ok(a)) {
        result.fail("grid cell " + cell + " failed: " + sweep[i].errors[a]);
        continue;
      }
      if (sweep[i].reports[a].bound_over_achieved < 1.0 - 1e-9)
        result.fail("grid cell " + cell + " beat the steady-state bound");
      if (sweep[i].reports[a].result.makespan !=
          reference[i].reports[a].result.makespan)
        result.fail("grid cell " + cell + " is not deterministic");
    }
  }
}

/// The traced sweep: the grid's cells spread over the same number of
/// threads, each cell's policy wrapped in a TimedScheduler and each call
/// into core, sched and sim recorded as a span.
struct CellLog {
  double cell_s = 0.0;
  double select_s = 0.0;
  double simulate_s = 0.0;
  double sched_s = 0.0;
  std::size_t decisions = 0;
  std::vector<double> next_us;
};

std::vector<CellLog> traced_sweep(const std::vector<core::Instance>& instances,
                                  const std::vector<core::Algorithm>& algorithms,
                                  int threads, SpanRecorder* spans,
                                  std::uint64_t sweep, RunResult& result) {
  const std::size_t cells = instances.size() * algorithms.size();
  std::vector<CellLog> logs(cells);
  std::vector<std::string> errors(cells);
  std::atomic<std::size_t> cursor{0};
  const auto worker = [&] {
    for (std::size_t cell = cursor++; cell < cells; cell = cursor++) {
      const core::Instance& instance = instances[cell / algorithms.size()];
      const core::Algorithm& algorithm = algorithms[cell % algorithms.size()];
      const std::uint64_t request = sweep * cells + cell;
      CellLog& log = logs[cell];
      try {
        const Clock::time_point begin = Clock::now();
        const int root =
            spans->begin("core.cell", SpanRecorder::kNoSpan, request);
        const int select = spans->begin("core.make_scheduler", root, request);
        std::unique_ptr<sim::Scheduler> inner = core::make_scheduler(
            algorithm, instance.platform, instance.partition);
        spans->end(select);
        const Clock::time_point selected = Clock::now();
        const int simulate = spans->begin("sim.simulate", root, request);
        TimedScheduler timed(std::move(inner), spans, simulate, request);
        const sim::RunResult run =
            sim::simulate(timed, instance.platform, instance.partition);
        spans->end(simulate);
        spans->end(root);
        const Clock::time_point end = Clock::now();
        log.cell_s = seconds_between(begin, end);
        log.select_s = seconds_between(begin, selected);
        log.simulate_s = seconds_between(selected, end);
        log.sched_s = timed.total_seconds();
        log.decisions = timed.call_us().size();
        log.next_us = timed.call_us();
        const double bound = model::steady_state_throughput(
            instance.platform.steady_workers());
        if (run.throughput() > bound * (1 + 1e-9))
          errors[cell] = "beat the steady-state bound";
      } catch (const std::exception& error) {
        errors[cell] = error.what();
      }
    }
  };
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) pool.emplace_back(worker);
  for (std::thread& thread : pool) thread.join();
  for (std::size_t cell = 0; cell < cells; ++cell)
    if (!errors[cell].empty())
      result.fail("traced grid cell " + std::to_string(cell) + ": " +
                  errors[cell]);
  return logs;
}

RunResult sim_grid(const RunOptions& options) {
  RunResult result;
  const std::vector<core::Algorithm> algorithms = core::paper_algorithms();
  core::ExperimentOptions experiment;
  experiment.threads = static_cast<int>(std::min(host_nproc(), kGridThreads));

  std::vector<core::Instance> instances;
  std::vector<core::InstanceResults> reference;
  const std::vector<double> setups = time_setups(
      options, [] {},
      [&] {
        instances = grid_instances(options.seed);
        reference = core::run_experiment(instances, algorithms, experiment);
      });
  const std::size_t cells = instances.size() * algorithms.size();
  check_sweep(result, reference, reference);
  std::vector<double> ratios;
  for (const core::InstanceResults& instance : reference)
    for (const core::RunReport& report : instance.reports)
      ratios.push_back(report.bound_over_achieved);

  Window plain;
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline = deadline_after(window_seconds(options));
  do {
    const Clock::time_point begin = Clock::now();
    const std::vector<core::InstanceResults> sweep =
        core::run_experiment(instances, algorithms, experiment);
    plain.latency_s.push_back(seconds_between(begin, Clock::now()));
    result.attempted += cells;
    for (const core::InstanceResults& instance : sweep)
      for (std::size_t a = 0; a < instance.reports.size(); ++a)
        if (!instance.cell_ok(a)) ++result.failed;
    check_sweep(result, sweep, reference);
  } while (Clock::now() < deadline);
  plain.seconds = seconds_between(start, Clock::now());
  report_end_to_end(result, setups, plain, kGridTail, mean(ratios));
  result.set("cells_per_s",
             static_cast<double>(plain.latency_s.size() * cells) /
                 plain.seconds,
             "1/s");

  if (options.traced()) {
    Window traced;
    std::vector<CellLog> logs;
    const Clock::time_point traced_start = Clock::now();
    const Clock::time_point traced_deadline =
        deadline_after(window_seconds(options));
    std::uint64_t sweep = 0;
    do {
      const Clock::time_point begin = Clock::now();
      std::vector<CellLog> sweep_logs =
          traced_sweep(instances, algorithms, experiment.threads,
                       options.spans, sweep++, result);
      traced.latency_s.push_back(seconds_between(begin, Clock::now()));
      result.attempted += cells;
      logs.insert(logs.end(), std::make_move_iterator(sweep_logs.begin()),
                  std::make_move_iterator(sweep_logs.end()));
    } while (Clock::now() < traced_deadline);
    traced.seconds = seconds_between(traced_start, Clock::now());

    std::vector<double> cell_ms, next_us;
    double select_s = 0.0, simulate_s = 0.0, sched_s = 0.0, cell_s = 0.0;
    std::size_t decisions = 0;
    for (const CellLog& log : logs) {
      cell_ms.push_back(log.cell_s * 1e3);
      next_us.insert(next_us.end(), log.next_us.begin(), log.next_us.end());
      select_s += log.select_s;
      simulate_s += log.simulate_s;
      sched_s += log.sched_s;
      cell_s += log.cell_s;
      decisions += log.decisions;
    }
    const double count = static_cast<double>(logs.size());
    result.set("core.cell_ms_p50", quantile(cell_ms, 0.5), "ms");
    result.set("core.cell_ms_p99", quantile(cell_ms, 0.99), "ms");
    result.set("core.selection_s_per_cell", select_s / count, "s");
    result.set("sim.decisions_per_s",
               static_cast<double>(decisions) / simulate_s, "1/s");
    result.set("sched.next_us_p50", quantile(next_us, 0.5), "us");
    result.set("sched.next_us_p99", quantile(next_us, 0.99), "us");
    result.set("sched.decisions_per_product",
               static_cast<double>(decisions) / count, "count");
    result.set("sched.self_frac", sched_s / cell_s, "frac");
    report_trace_overhead(result, plain, traced);
    fill_layer_metrics(result,
                       ProbeShape{runtime::TransportKind::kThread, het4(false),
                                  het4(true), {1, 1, 2, 3}, 320, 80, "ODDOML"},
                       options.seed);
  }
  report_failures(result);
  return result;
}

}  // namespace

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> list = {
      // Tiny jobs: per-job service overhead (admission, queue, leases,
      // master-loop start and stop) dominates.
      {"service-small", &service_small},
      // Payload-heavy wire path, mixed sizes and lease rebalancing.
      {"service-mixed-tcp", &service_mixed_tcp},
      // The GEMM kernel does most of the work; nothing is serialized.
      {"product-kernel", &product_kernel},
      // ~8.8k small frames per product: serde, sockets, spawn and the
      // master loop dominate.
      {"stream-process", &stream_process},
      // The second socket transport, kept apart so that merging the two
      // cannot regress either.
      {"stream-tcp", &stream_tcp},
      // sim, sched and model with no runtime: the no-change control for
      // every runtime optimisation.
      {"sim-grid", &sim_grid},
  };
  return list;
}

const std::vector<MetricSpec>& end_to_end_metrics() {
  static const std::vector<MetricSpec> metrics = {
      {"setup_s", "s"},         {"ops_per_s", "1/s"},
      {"op_p50_ms", "ms"},      {"op_tail_ms", "ms"},
      {"peak_rss_mb", "MB"},    {"bound_ratio_mean", "ratio"},
  };
  return metrics;
}

}  // namespace hmxp::suite
