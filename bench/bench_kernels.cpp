// google-benchmark microbenchmarks backing the calibration constants:
// GEMM kernel rates per dispatch tier (the w_i of the model), engine
// decision throughput (the cost of Het's 8-variant simulation), the
// pooled online runtime, and the simplex solver.
//
// Unless --benchmark_out is given, results are also written to
// BENCH_kernels.json (google-benchmark's JSON schema) in the working
// directory, so CI keeps a machine-readable perf trajectory across PRs.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <iostream>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/run.hpp"
#include "matrix/gemm.hpp"
#include "matrix/kernel_dispatch.hpp"
#include "model/steady_state.hpp"
#include "platform/generator.hpp"
#include "runtime/executor.hpp"
#include "runtime/fleet.hpp"
#include "sched/demand_driven.hpp"
#include "sched/registry.hpp"
#include "service/client.hpp"
#include "service/daemon.hpp"
#include "sim/scheduler.hpp"
#include "util/rng.hpp"

namespace {

using namespace hmxp;

void report_gflops(benchmark::State& state, std::size_t n) {
  state.counters["GFlop/s"] = benchmark::Counter(
      matrix::gemm_flops(n, n, n) * static_cast<double>(state.iterations()) /
          1e9,
      benchmark::Counter::kIsRate);
}

void BM_GemmNaive(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  util::Rng rng(1);
  const auto a = matrix::Matrix::random(n, n, rng);
  const auto b = matrix::Matrix::random(n, n, rng);
  matrix::Matrix c(n, n, 0.0);
  for (auto _ : state) {
    matrix::gemm_naive(a.view(), b.view(), c.view());
    benchmark::DoNotOptimize(c.data());
  }
  report_gflops(state, n);
}
BENCHMARK(BM_GemmNaive)->Arg(80);

void BM_GemmTiled(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  util::Rng rng(2);
  const auto a = matrix::Matrix::random(n, n, rng);
  const auto b = matrix::Matrix::random(n, n, rng);
  matrix::Matrix c(n, n, 0.0);
  for (auto _ : state) {
    matrix::gemm_tiled(a.view(), b.view(), c.view());
    benchmark::DoNotOptimize(c.data());
  }
  report_gflops(state, n);
}
BENCHMARK(BM_GemmTiled)->Arg(80)->Arg(160)->Arg(320)->Arg(512)->Arg(1024);

void BM_GemmSimd(benchmark::State& state) {
  // The packed micro-kernel path with whatever micro-kernel the host
  // dispatches and the active blocking (the JSON context's
  // hmxp_kernel_variant and hmxp_blocking say which).
  const auto n = static_cast<std::size_t>(state.range(0));
  util::Rng rng(2);
  const auto a = matrix::Matrix::random(n, n, rng);
  const auto b = matrix::Matrix::random(n, n, rng);
  matrix::Matrix c(n, n, 0.0);
  for (auto _ : state) {
    matrix::gemm_simd(a.view(), b.view(), c.view());
    benchmark::DoNotOptimize(c.data());
  }
  report_gflops(state, n);
}
BENCHMARK(BM_GemmSimd)->Arg(80)->Arg(160)->Arg(320)->Arg(512)->Arg(1024);

void BM_GemmAvx512(benchmark::State& state) {
  // The AVX-512 8x8 micro-kernel, explicitly pinned. Registered from
  // main() only when the host can execute it, so the benchmark (and
  // the CI filter entry naming it) simply does not exist elsewhere.
  const auto n = static_cast<std::size_t>(state.range(0));
  util::Rng rng(2);
  const auto a = matrix::Matrix::random(n, n, rng);
  const auto b = matrix::Matrix::random(n, n, rng);
  matrix::Matrix c(n, n, 0.0);
  const auto previous = matrix::forced_micro_kernel_variant();
  matrix::force_micro_kernel_variant(matrix::MicroKernelVariant::kAvx512);
  for (auto _ : state) {
    matrix::gemm_simd(a.view(), b.view(), c.view());
    benchmark::DoNotOptimize(c.data());
  }
  report_gflops(state, n);
  matrix::force_micro_kernel_variant(previous);
}

void BM_GemmSimdPortable(benchmark::State& state) {
  // Same packed path pinned to the portable micro-kernel: what the
  // "simd" tier delivers on a host without AVX2 (must be no slower
  // than the tiled baseline).
  const auto n = static_cast<std::size_t>(state.range(0));
  util::Rng rng(2);
  const auto a = matrix::Matrix::random(n, n, rng);
  const auto b = matrix::Matrix::random(n, n, rng);
  matrix::Matrix c(n, n, 0.0);
  matrix::force_portable_micro_kernel(true);
  for (auto _ : state) {
    matrix::gemm_simd(a.view(), b.view(), c.view());
    benchmark::DoNotOptimize(c.data());
  }
  matrix::force_portable_micro_kernel(false);
  report_gflops(state, n);
}
BENCHMARK(BM_GemmSimdPortable)->Arg(320)->Arg(512);

void BM_GemmParallel(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  util::Rng rng(3);
  const auto a = matrix::Matrix::random(n, n, rng);
  const auto b = matrix::Matrix::random(n, n, rng);
  matrix::Matrix c(n, n, 0.0);
  for (auto _ : state) {
    matrix::gemm_parallel(a.view(), b.view(), c.view());
    benchmark::DoNotOptimize(c.data());
  }
  report_gflops(state, n);
}
BENCHMARK(BM_GemmParallel)->Arg(320)->Arg(1024);

void BM_BlockUpdate(benchmark::State& state) {
  // One q x q block update: the atom whose cost is w_i in the model.
  const std::size_t q = 80;
  util::Rng rng(4);
  const auto a = matrix::Matrix::random(q, q, rng);
  const auto b = matrix::Matrix::random(q, q, rng);
  matrix::Matrix c(q, q, 0.0);
  for (auto _ : state) {
    matrix::gemm_auto(a.view(), b.view(), c.view());
    benchmark::DoNotOptimize(c.data());
  }
}
BENCHMARK(BM_BlockUpdate);

/// The product-kernel suite workload's geometry: n = 1280, q = 80, and
/// worker 0's chunks are mu = 6 blocks square, so one step updates a
/// 480 x 480 C chunk with a 480 x 80 A panel and an 80 x 480 B panel.
constexpr std::size_t kStepN = 1280;
constexpr std::size_t kStepQ = 80;
constexpr std::size_t kStepSide = 6 * kStepQ;

void BM_StepUpdate(benchmark::State& state) {
  // One worker step as the thread worker runs it. lent:0 reads dense
  // panels (the copies the master used to make); lent:1 reads the
  // panels in place, as windows of the 1280-wide A and B -- what a
  // thread worker does now that the master lends them.
  const bool lent = state.range(0) != 0;
  util::Rng rng(6);
  // The dense panels themselves, or the whole operands they are
  // windows of.
  const auto a = lent ? matrix::Matrix::random(kStepN, kStepN, rng)
                      : matrix::Matrix::random(kStepSide, kStepQ, rng);
  const auto b = lent ? matrix::Matrix::random(kStepN, kStepN, rng)
                      : matrix::Matrix::random(kStepQ, kStepSide, rng);
  const matrix::ConstView a_panel = a.window(0, 0, kStepSide, kStepQ);
  const matrix::ConstView b_panel = b.window(0, 0, kStepQ, kStepSide);
  matrix::Matrix c(kStepSide, kStepSide, 0.0);
  for (auto _ : state) {
    matrix::gemm_auto(a_panel, b_panel, c.view());
    benchmark::DoNotOptimize(c.data());
    benchmark::ClobberMemory();
  }
  state.counters["GFlop/s"] = benchmark::Counter(
      matrix::gemm_flops(kStepSide, kStepSide, kStepQ) *
          static_cast<double>(state.iterations()) / 1e9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_StepUpdate)->ArgName("lent")->Arg(0)->Arg(1);

void BM_WindowCopy(benchmark::State& state) {
  // The per-step copy the master no longer makes: the A and B panels of
  // one BM_StepUpdate step, out of the 1280-wide matrices into dense
  // buffers.
  util::Rng rng(7);
  const auto a = matrix::Matrix::random(kStepN, kStepN, rng);
  const auto b = matrix::Matrix::random(kStepN, kStepN, rng);
  std::vector<double> a_panel(kStepSide * kStepQ);
  std::vector<double> b_panel(kStepQ * kStepSide);
  for (auto _ : state) {
    matrix::copy_into(a.window(0, 0, kStepSide, kStepQ),
                      matrix::View(a_panel.data(), kStepSide, kStepQ, kStepQ));
    matrix::copy_into(
        b.window(0, 0, kStepQ, kStepSide),
        matrix::View(b_panel.data(), kStepQ, kStepSide, kStepSide));
    benchmark::DoNotOptimize(a_panel.data());
    benchmark::DoNotOptimize(b_panel.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(
      state.iterations() * 2 * kStepSide * kStepQ * sizeof(double)));
}
BENCHMARK(BM_WindowCopy);

void BM_EngineDecisionThroughput(benchmark::State& state) {
  // Full simulated run of ODDOML on the Fig. 4 platform; reports
  // scheduling decisions per second, the cost driver of Het's phase 1.
  const auto plat = platform::hetero_memory();
  const auto part = matrix::Partition::from_blocks(
      100, 100, static_cast<std::size_t>(state.range(0)), 80);
  std::size_t decisions = 0;
  for (auto _ : state) {
    auto scheduler = sched::make_oddoml(plat, part);
    sim::Engine engine(plat, part, /*record_trace=*/false);
    const sim::RunResult result = sim::run(scheduler, engine);
    decisions += result.decisions;
    benchmark::DoNotOptimize(result.makespan);
  }
  state.counters["decisions/s"] = benchmark::Counter(
      static_cast<double>(decisions), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_EngineDecisionThroughput)->Arg(400)->Arg(800);

/// Building a scheduler that selects its platform before it runs: Hom
/// and HomI price every virtual platform they consider, Het simulates
/// its eight look-ahead variants. One seeded random eight-worker
/// platform, r x t x s blocks at q = 80.
void BM_Selection(benchmark::State& state, const char* algorithm,
                  std::size_t r, std::size_t t, std::size_t s) {
  util::Rng rng(1);
  const auto plat = platform::random_platform(rng, 8);
  const auto part = matrix::Partition::from_blocks(r, t, s, 80);
  for (auto _ : state) {
    auto scheduler = sched::Registry::instance().make(algorithm, plat, part);
    benchmark::DoNotOptimize(scheduler.get());
  }
  state.counters["selections/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
}
// sim-grid's instance shape, and the paper's.
BENCHMARK_CAPTURE(BM_Selection, Hom/grid, "Hom", 20, 100, 20)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_Selection, HomI/grid, "HomI", 20, 100, 20)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_Selection, Het/grid, "Het", 20, 100, 20)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_Selection, Hom/paper, "Hom", 100, 100, 100)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_Selection, HomI/paper, "HomI", 100, 100, 100)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_Selection, Het/paper, "Het", 100, 100, 100)
    ->Unit(benchmark::kMillisecond);

/// One online product per iteration: ODDOML on four homogeneous
/// workers, n x n x n in q = 16 blocks, verification off, over
/// `transport`. A standalone run (execute_online) spawns its fleet,
/// runs the product and shuts the fleet down; a `warm` run is the same
/// product as execute_on_fleet on a fleet spawned once, outside the
/// timed loop. So each standalone row should read about its
/// BM_FleetSpawn row plus its BM_OnlineRuntimeWarm row. Every row
/// reports blocks and updates per wall second, the last run's pool
/// traffic, and the data-plane counters -- wire and zero-copied bytes
/// per second, master-side serde time per run, arena slots -- which
/// read 0 on a transport that has none of them (the thread transport
/// moves messages by value; only shm has an arena). A warm row reads
/// its fleet's counters once, after the fleet's shutdown.
void BM_Online(benchmark::State& state, runtime::TransportKind transport,
               bool warm) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto plat = platform::Platform::homogeneous(4, 0.01, 0.002, 40);
  const matrix::Partition part(n, n, n, 16);
  util::Rng rng(5);
  const auto a = matrix::Matrix::random(n, n, rng);
  const auto b = matrix::Matrix::random(n, n, rng);
  matrix::Matrix c(n, n, 0.0);
  runtime::ExecutorOptions options;
  options.transport = transport;
  options.verify = false;
  std::optional<runtime::Fleet> fleet;
  if (warm) fleet.emplace(plat, options, n * n);
  const std::vector<int> everyone{0, 1, 2, 3};
  std::size_t blocks = 0;
  std::size_t updates = 0;
  std::size_t runs = 0;
  runtime::BufferPool::Stats pool;
  runtime::TransportStats data;
  std::size_t arena_peak = 0;
  for (auto _ : state) {
    auto scheduler = sched::make_oddoml(plat, part);
    const runtime::ExecutorReport report =
        warm ? runtime::execute_on_fleet(scheduler, *fleet, part, a, b, c,
                                         everyone, runtime::LeaseHooks{})
             : runtime::execute_online(scheduler, plat, part, a, b, c,
                                       options);
    blocks += static_cast<std::size_t>(report.result.comm_blocks);
    updates += report.updates_performed;
    pool = report.buffer_pool_delta;
    data += report.transport_stats;
    arena_peak =
        std::max(arena_peak, report.transport_stats.arena_peak_slots);
    ++runs;
    benchmark::DoNotOptimize(report.wall_seconds);
  }
  if (warm) {
    fleet->shutdown();
    data = fleet->transport_stats();
    arena_peak = data.arena_peak_slots;
  }
  const auto rate = [](double count) {
    return benchmark::Counter(count, benchmark::Counter::kIsRate);
  };
  constexpr double kMiB = 1024.0 * 1024.0;
  state.counters["blocks/s"] = rate(static_cast<double>(blocks));
  state.counters["updates/s"] = rate(static_cast<double>(updates));
  state.counters["pool_allocs"] = static_cast<double>(pool.allocations);
  state.counters["pool_acquires"] = static_cast<double>(pool.acquires);
  state.counters["wire_MB/s"] = rate(
      static_cast<double>(data.bytes_sent + data.bytes_received) / kMiB);
  state.counters["zero_copy_MB/s"] =
      rate(static_cast<double>(data.bytes_zero_copied) / kMiB);
  state.counters["serde_ms"] =
      runs > 0 ? data.serde_seconds * 1e3 / static_cast<double>(runs) : 0.0;
  state.counters["arena_peak"] = static_cast<double>(arena_peak);
  state.counters["arena_leaked"] =
      static_cast<double>(data.arena_leaked_slots);
}

/// What a standalone run pays around its product: spawn a four-worker
/// fleet sized for the n = 160 rows, and shut it down.
void BM_FleetSpawn(benchmark::State& state,
                   runtime::TransportKind transport) {
  const auto plat = platform::Platform::homogeneous(4, 0.01, 0.002, 40);
  runtime::ExecutorOptions options;
  options.transport = transport;
  for (auto _ : state) {
    runtime::Fleet fleet(plat, options, 160 * 160);
    fleet.shutdown();
  }
}

const bool kOnlineRowsRegistered = [] {
  using runtime::TransportKind;
  const auto online = [](const std::string& name, TransportKind transport,
                         bool warm) {
    return benchmark::RegisterBenchmark(
               name.c_str(),
               [transport, warm](benchmark::State& state) {
                 BM_Online(state, transport, warm);
               })
        ->Unit(benchmark::kMillisecond)
        ->UseRealTime();
  };
  // The standalone rows, under the names earlier baselines use.
  online("BM_OnlineRuntime", TransportKind::kThread, false)
      ->Arg(160)->Arg(320)->Arg(640);
  online("BM_OnlineRuntimeProcess", TransportKind::kProcess, false)
      ->Arg(160)->Arg(320);
  online("BM_OnlineRuntimeShm", TransportKind::kShm, false)
      ->Arg(160)->Arg(320)->Arg(640);
  online("BM_OnlineRuntimeTcp", TransportKind::kTcp, false)
      ->Arg(160)->Arg(320);
  for (const TransportKind transport :
       {TransportKind::kThread, TransportKind::kProcess, TransportKind::kShm,
        TransportKind::kTcp}) {
    const std::string name = runtime::transport_kind_name(transport);
    benchmark::RegisterBenchmark(("BM_FleetSpawn/" + name).c_str(),
                                 [transport](benchmark::State& state) {
                                   BM_FleetSpawn(state, transport);
                                 })
        ->Unit(benchmark::kMillisecond)
        ->UseRealTime();
    online("BM_OnlineRuntimeWarm/" + name, transport, true)->Arg(160);
  }
  return true;
}();

void BM_OnlineRuntimeFaulty(benchmark::State& state) {
  // The unreliable-platform path: one of four workers is killed partway
  // through every run (its 4th operand step) and the fault-tolerant
  // demand-driven policy re-assigns the lost chunk to the survivors.
  // Blocks/sec here vs BM_OnlineRuntime is the price of recovery --
  // failure detection, channel draining, mirror rollback, re-planning.
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto plat = platform::Platform::homogeneous(4, 0.01, 0.002, 40);
  const matrix::Partition part(n, n, n, 16);
  util::Rng rng(5);
  const auto a = matrix::Matrix::random(n, n, rng);
  const auto b = matrix::Matrix::random(n, n, rng);
  matrix::Matrix c(n, n, 0.0);
  std::size_t blocks = 0;
  std::size_t updates = 0;
  std::size_t failures = 0;
  for (auto _ : state) {
    auto scheduler =
        sched::Registry::instance().make("FT-ODDOML", plat, part);
    runtime::ExecutorOptions options;
    options.verify = false;
    options.tolerate_faults = true;
    auto steps = std::make_shared<std::array<std::atomic<int>, 4>>();
    options.fault_hook = [steps](int worker, std::size_t) {
      if (worker == 1 && 1 + (*steps)[1].fetch_add(1) == 4)
        throw std::runtime_error("benchmark kill: worker 1");
    };
    const runtime::ExecutorReport report =
        runtime::execute_online(*scheduler, plat, part, a, b, c, options);
    blocks += static_cast<std::size_t>(report.result.comm_blocks);
    updates += report.updates_performed;
    failures += static_cast<std::size_t>(report.workers_failed);
    benchmark::DoNotOptimize(report.wall_seconds);
  }
  state.counters["blocks/s"] = benchmark::Counter(
      static_cast<double>(blocks), benchmark::Counter::kIsRate);
  state.counters["updates/s"] = benchmark::Counter(
      static_cast<double>(updates), benchmark::Counter::kIsRate);
  state.counters["failures"] = static_cast<double>(failures);
}
BENCHMARK(BM_OnlineRuntimeFaulty)
    ->Arg(160)
    ->Arg(320)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_OnlineRuntimeStraggler(benchmark::State& state) {
  // The slow-but-alive path: one of four workers ramps to 8x its
  // nominal compute cost early in every run (compounding co-tenant
  // starvation, emulated by repeated kernel work -- not sleeps) and the
  // speculative wrapper races duplicates of its chunks on idle
  // survivors, cancelling the loser. Blocks/sec vs BM_OnlineRuntime is
  // the price of living with a degraded worker: calibration, duplicate
  // sends, cancellation drains, wasted twin updates.
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto plat = platform::Platform::homogeneous(4, 0.01, 0.002, 40);
  const matrix::Partition part(n, n, n, 16);
  util::Rng rng(6);
  const auto a = matrix::Matrix::random(n, n, rng);
  const auto b = matrix::Matrix::random(n, n, rng);
  matrix::Matrix c(n, n, 0.0);
  std::size_t blocks = 0;
  std::size_t updates = 0;
  std::size_t duplicates = 0;
  std::size_t cancelled = 0;
  for (auto _ : state) {
    auto scheduler =
        sched::Registry::instance().make("SP-ODDOML", plat, part);
    runtime::ExecutorOptions options;
    options.verify = false;
    options.perturbation =
        platform::make_ramping_straggler(1, 0.002, 0.004, 2.0, 3);
    const runtime::ExecutorReport report =
        runtime::execute_online(*scheduler, plat, part, a, b, c, options);
    blocks += static_cast<std::size_t>(report.result.comm_blocks);
    updates += report.updates_performed;
    duplicates += report.speculation.duplicates_issued;
    cancelled += report.speculation.duplicates_cancelled;
    benchmark::DoNotOptimize(report.wall_seconds);
  }
  state.counters["blocks/s"] = benchmark::Counter(
      static_cast<double>(blocks), benchmark::Counter::kIsRate);
  state.counters["updates/s"] = benchmark::Counter(
      static_cast<double>(updates), benchmark::Counter::kIsRate);
  state.counters["duplicates"] = static_cast<double>(duplicates);
  state.counters["cancelled"] = static_cast<double>(cancelled);
}
BENCHMARK(BM_OnlineRuntimeStraggler)
    ->Arg(160)
    ->Arg(320)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_ServiceThroughput(benchmark::State& state) {
  // The persistent multi-job service under concurrent load: ONE daemon
  // (ONE warm fleet, pools and calibration) serves 8 client threads, 2
  // jobs each, per iteration. jobs/s against
  // BM_ServiceBaselineIndependent below -- the same 16 jobs each
  // spawning and tearing down their own 4-worker runtime -- is what the
  // service buys: no per-job worker spawn, warm buffer pools, and
  // fair-shared (not oversubscribed) cores. The daemon outlives the
  // timing loop on purpose; its spawn cost is the one-time price the
  // service amortizes.
  const int clients = 8;
  const int jobs_per_client = 2;
  service::DaemonConfig config;
  // m = 256: admission prices buffer demand against OBSERVED speeds, and
  // on a fast bench machine the calibrated working set outgrows the
  // m = 40 the sibling benches use -- give the fleet headroom so every
  // job stays admissible for the whole run.
  config.platform = platform::Platform::homogeneous(4, 0.01, 0.002, 1000000);
  config.executor.verify = false;
  config.max_payload_doubles = 256 * 256;
  config.max_concurrent_jobs = static_cast<std::size_t>(clients);
  config.queue_capacity = 64;
  config.calibration_cache = "off";  // benches never touch the user cache
  service::Daemon daemon(std::move(config));
  std::size_t jobs_served = 0;
  std::size_t failures = 0;
  for (auto _ : state) {
    std::vector<std::thread> threads;
    threads.reserve(clients);
    std::atomic<std::size_t> completed{0};
    std::atomic<std::size_t> failed{0};
    for (int t = 0; t < clients; ++t) {
      threads.emplace_back([&daemon, &completed, &failed, t] {
        service::Client client(daemon);
        for (int j = 0; j < jobs_per_client; ++j) {
          service::JobSpec spec;
          spec.n_a = spec.n_ab = spec.n_b = 48;
          spec.q = 16;
          spec.data_seed = static_cast<std::uint64_t>(t * 16 + j);
          const service::JobResult result = client.run(spec);
          if (result.state == service::JobState::kCompleted) {
            ++completed;
          } else {
            static std::atomic<bool> reported{false};
            if (!reported.exchange(true))
              std::cerr << "service job failed: state="
                        << service::job_state_name(result.state) << " error=\""
                        << result.error << "\"\n";
            ++failed;
          }
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
    jobs_served += completed.load();
    failures += failed.load();
  }
  state.counters["jobs/s"] = benchmark::Counter(
      static_cast<double>(jobs_served), benchmark::Counter::kIsRate);
  state.counters["failures"] = static_cast<double>(failures);
  const runtime::BufferPool::Stats pool = daemon.fleet().pool().stats();
  state.counters["pool_allocs"] = static_cast<double>(pool.allocations);
  state.counters["pool_acquires"] = static_cast<double>(pool.acquires);
}
BENCHMARK(BM_ServiceThroughput)->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_ServiceBaselineIndependent(benchmark::State& state) {
  // The no-service counterfactual for BM_ServiceThroughput: the same 8
  // concurrent clients x 2 jobs, but every job is an independent
  // run_algorithm_online -- it spawns its own 4 worker threads, warms
  // its own pools, calibrates from scratch and tears everything down.
  // Eight 4-worker runtimes oversubscribe the machine on top of paying
  // the per-job spawn; the service's jobs/s over this baseline is the
  // acceptance ratio (>= 1.5x on the reference machine).
  const int clients = 8;
  const int jobs_per_client = 2;
  const auto plat = platform::Platform::homogeneous(4, 0.01, 0.002, 1000000);
  const matrix::Partition part(48, 48, 48, 16);
  std::size_t jobs_served = 0;
  std::size_t failures = 0;
  for (auto _ : state) {
    std::vector<std::thread> threads;
    threads.reserve(clients);
    std::atomic<std::size_t> completed{0};
    std::atomic<std::size_t> failed{0};
    for (int t = 0; t < clients; ++t) {
      threads.emplace_back([&plat, &part, &completed, &failed, t] {
        for (int j = 0; j < jobs_per_client; ++j) {
          core::OnlineOptions options;
          options.verify = false;
          options.data_seed = static_cast<std::uint64_t>(t * 16 + j);
          try {
            core::run_algorithm_online("FT-ODDOML", plat, part, options);
            ++completed;
          } catch (const std::exception&) {
            ++failed;
          }
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
    jobs_served += completed.load();
    failures += failed.load();
  }
  state.counters["jobs/s"] = benchmark::Counter(
      static_cast<double>(jobs_served), benchmark::Counter::kIsRate);
  state.counters["failures"] = static_cast<double>(failures);
}
BENCHMARK(BM_ServiceBaselineIndependent)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_SteadyStateSimplex(benchmark::State& state) {
  const auto plat = platform::real_platform_aug2007();
  const auto workers = plat.steady_workers();
  for (auto _ : state) {
    const auto solution = model::solve_lp(workers);
    benchmark::DoNotOptimize(solution.throughput);
  }
}
BENCHMARK(BM_SteadyStateSimplex);

void BM_BandwidthCentricGreedy(benchmark::State& state) {
  const auto plat = platform::real_platform_aug2007();
  const auto workers = plat.steady_workers();
  for (auto _ : state) {
    const auto solution = model::solve_bandwidth_centric(workers);
    benchmark::DoNotOptimize(solution.throughput);
  }
}
BENCHMARK(BM_BandwidthCentricGreedy);

/// The JSON file reporter, except that a counter reading 0 in every
/// repetition gets a cv of 0 (no spread) instead of 0/0: the bare NaN
/// google-benchmark would write is not JSON, and strict parsers reject
/// the whole capture.
class FiniteJsonReporter final : public benchmark::JSONReporter {
 public:
  void ReportRuns(const std::vector<Run>& reports) override {
    std::vector<Run> runs = reports;
    for (Run& run : runs)
      for (auto& [name, counter] : run.counters)
        if (run.aggregate_name == "cv" && std::isnan(counter.value))
          counter.value = 0;
    JSONReporter::ReportRuns(runs);
  }
};

}  // namespace

int main(int argc, char** argv) {
  // The committed BENCH_kernels.json is the repo's perf baseline; a
  // debug-build capture would silently poison every later comparison.
  // Unoptimized builds therefore never auto-emit the file -- an
  // explicit --benchmark_out still works, and the build type is stamped
  // into the JSON context either way so a stray capture is traceable.
#if defined(NDEBUG)
  constexpr bool optimized_build = true;
#else
  constexpr bool optimized_build = false;
#endif
  benchmark::AddCustomContext("hmxp_build_type",
                              optimized_build ? "release" : "debug");

  // --kernel mirrors the figure benches (it is consumed here, before
  // google-benchmark sees the argument list): pin the dispatch.
  std::vector<std::string> args;
  for (int i = 0; i < argc; ++i) {
    const std::string arg(argv[i]);
    if (arg.rfind("--kernel=", 0) == 0)
      hmxp::matrix::apply_kernel_pin(arg.substr(9));
    else
      args.push_back(arg);
  }

  // Stamp the kernel configuration into the JSON context: every
  // GFLOP/s figure in this file is attributable to a (variant,
  // blocking) pair.
  benchmark::AddCustomContext("hmxp_kernel_variant",
                              hmxp::matrix::packed_kernel_variant());
  benchmark::AddCustomContext(
      "hmxp_blocking",
      hmxp::matrix::blocking_to_string(hmxp::matrix::active_blocking()));

  // Host-capability-gated registration: on a non-AVX-512 machine the
  // benchmark is absent rather than failing or lying.
  if (hmxp::matrix::cpu_supports_avx512())
    benchmark::RegisterBenchmark("BM_GemmAvx512", &BM_GemmAvx512)
        ->Arg(512)
        ->Arg(1024);

  bool has_out = false;
  bool json_out = true;
  for (const std::string& arg : args) {
    if (arg == "--benchmark_out" || arg.rfind("--benchmark_out=", 0) == 0)
      has_out = true;
    if (arg.rfind("--benchmark_out_format=", 0) == 0)
      json_out = arg == "--benchmark_out_format=json";
  }
  if (!has_out) {
    if (!optimized_build) {
      std::cerr << "bench_kernels: DEBUG build -- refusing to auto-write "
                   "BENCH_kernels.json (numbers would be meaningless as a "
                   "baseline). Pass --benchmark_out=... explicitly to "
                   "capture anyway.\n";
    } else {
      args.push_back("--benchmark_out=BENCH_kernels.json");
      args.push_back("--benchmark_out_format=json");
    }
  }

  std::vector<char*> argv_patched;
  argv_patched.reserve(args.size());
  for (std::string& arg : args) argv_patched.push_back(arg.data());
  int argc_patched = static_cast<int>(argv_patched.size());

  benchmark::Initialize(&argc_patched, argv_patched.data());
  if (benchmark::ReportUnrecognizedArguments(argc_patched,
                                             argv_patched.data()))
    return 1;
  FiniteJsonReporter json;
  benchmark::RunSpecifiedBenchmarks(
      nullptr, (has_out || optimized_build) && json_out ? &json : nullptr);
  benchmark::Shutdown();
  return 0;
}
