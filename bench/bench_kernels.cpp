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
#include <cstdint>
#include <cstring>
#include <iostream>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "core/run.hpp"
#include "matrix/gemm.hpp"
#include "matrix/kernel_dispatch.hpp"
#include "model/steady_state.hpp"
#include "platform/generator.hpp"
#include "runtime/executor.hpp"
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

/// Stamps which micro-kernel the packed tier ran (one-hot avx512 /
/// avx2 counters) and the blocking it used, so per-tier GFLOP/s in
/// BENCH_kernels.json is attributable to a configuration.
void report_packed_config(benchmark::State& state) {
  state.counters["avx512"] =
      std::strcmp(matrix::packed_kernel_variant(), "avx512") == 0 ? 1 : 0;
  state.counters["avx2"] =
      std::strcmp(matrix::packed_kernel_variant(), "avx2+fma") == 0 ? 1 : 0;
  const matrix::BlockingParams blocking = matrix::active_blocking();
  state.counters["mc"] = static_cast<double>(blocking.mc);
  state.counters["kc"] = static_cast<double>(blocking.kc);
  state.counters["nc"] = static_cast<double>(blocking.nc);
}

void BM_GemmSimd(benchmark::State& state) {
  // The packed micro-kernel path with whatever micro-kernel the host
  // dispatches and the AUTOTUNED blocking (counters mc/kc/nc say which
  // won); BM_GemmSimdFixedBlocking below is the hardcoded-120/256/512
  // baseline this must never fall below.
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
  report_packed_config(state);
}
BENCHMARK(BM_GemmSimd)->Arg(80)->Arg(160)->Arg(320)->Arg(512)->Arg(1024);

void BM_GemmSimdFixedBlocking(benchmark::State& state) {
  // The packed path pinned to the historical hardcoded blocking
  // (120/256/512): the no-regression baseline for the autotuner.
  // BM_GemmSimd GFLOP/s >= this, shape by shape, is the honest-win
  // criterion the tuning cache answers for.
  const auto n = static_cast<std::size_t>(state.range(0));
  util::Rng rng(2);
  const auto a = matrix::Matrix::random(n, n, rng);
  const auto b = matrix::Matrix::random(n, n, rng);
  matrix::Matrix c(n, n, 0.0);
  for (auto _ : state) {
    matrix::gemm_simd_with_blocking(a.view(), b.view(), c.view(),
                                    matrix::kDefaultBlocking);
    benchmark::DoNotOptimize(c.data());
  }
  report_gflops(state, n);
}
BENCHMARK(BM_GemmSimdFixedBlocking)->Arg(512)->Arg(1024);

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
  report_packed_config(state);
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

void BM_OnlineRuntime(benchmark::State& state) {
  // End-to-end online execution: live demand-driven scheduling through
  // the threaded master loop on real matrices. Reports blocks moved
  // through the executor per second -- the perf trajectory of the
  // runtime path (channel hops, window copies, mirror bookkeeping),
  // with verification off so the reference product does not dominate.
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto plat = platform::Platform::homogeneous(4, 0.01, 0.002, 40);
  const matrix::Partition part(n, n, n, 16);
  util::Rng rng(5);
  const auto a = matrix::Matrix::random(n, n, rng);
  const auto b = matrix::Matrix::random(n, n, rng);
  matrix::Matrix c(n, n, 0.0);
  std::size_t blocks = 0;
  std::size_t updates = 0;
  std::size_t pool_allocations = 0;
  std::size_t pool_acquires = 0;
  for (auto _ : state) {
    auto scheduler = sched::make_oddoml(plat, part);
    runtime::ExecutorOptions options;
    options.verify = false;
    const runtime::ExecutorReport report =
        runtime::execute_online(scheduler, plat, part, a, b, c, options);
    blocks += static_cast<std::size_t>(report.result.comm_blocks);
    updates += report.updates_performed;
    pool_allocations = report.buffer_pool.allocations;  // last run's counts
    pool_acquires = report.buffer_pool.acquires;
    benchmark::DoNotOptimize(report.wall_seconds);
  }
  state.counters["blocks/s"] = benchmark::Counter(
      static_cast<double>(blocks), benchmark::Counter::kIsRate);
  state.counters["updates/s"] = benchmark::Counter(
      static_cast<double>(updates), benchmark::Counter::kIsRate);
  state.counters["pool_allocs"] = static_cast<double>(pool_allocations);
  state.counters["pool_acquires"] = static_cast<double>(pool_acquires);
}
BENCHMARK(BM_OnlineRuntime)
    ->Arg(160)
    ->Arg(320)
    ->Arg(640)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_OnlineRuntimeProcess(benchmark::State& state) {
  // The same end-to-end online run over the PROCESS transport: one
  // forked worker process per worker, every message serialized into
  // length-prefixed frames over a socketpair. Blocks/sec against
  // BM_OnlineRuntime is the price of address-space isolation, and the
  // serde counters break it down: bytes moved across the sockets per
  // second and the master-side seconds spent encoding/decoding frames
  // per run (serde_ms), next to the pool counters the thread transport
  // reports.
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto plat = platform::Platform::homogeneous(4, 0.01, 0.002, 40);
  const matrix::Partition part(n, n, n, 16);
  util::Rng rng(5);
  const auto a = matrix::Matrix::random(n, n, rng);
  const auto b = matrix::Matrix::random(n, n, rng);
  matrix::Matrix c(n, n, 0.0);
  std::size_t blocks = 0;
  std::size_t updates = 0;
  std::size_t wire_bytes = 0;
  double serde_seconds = 0.0;
  std::size_t runs = 0;
  for (auto _ : state) {
    auto scheduler = sched::make_oddoml(plat, part);
    runtime::ExecutorOptions options;
    options.transport = runtime::TransportKind::kProcess;
    options.verify = false;
    const runtime::ExecutorReport report =
        runtime::execute_online(scheduler, plat, part, a, b, c, options);
    blocks += static_cast<std::size_t>(report.result.comm_blocks);
    updates += report.updates_performed;
    wire_bytes += report.transport_stats.bytes_sent +
                  report.transport_stats.bytes_received;
    serde_seconds += report.transport_stats.serde_seconds;
    ++runs;
    benchmark::DoNotOptimize(report.wall_seconds);
  }
  state.counters["blocks/s"] = benchmark::Counter(
      static_cast<double>(blocks), benchmark::Counter::kIsRate);
  state.counters["updates/s"] = benchmark::Counter(
      static_cast<double>(updates), benchmark::Counter::kIsRate);
  state.counters["wire_MB/s"] = benchmark::Counter(
      static_cast<double>(wire_bytes) / (1024.0 * 1024.0),
      benchmark::Counter::kIsRate);
  state.counters["serde_ms"] =
      runs > 0 ? serde_seconds * 1e3 / static_cast<double>(runs) : 0.0;
}
BENCHMARK(BM_OnlineRuntimeProcess)
    ->Arg(160)
    ->Arg(320)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_OnlineRuntimeShm(benchmark::State& state) {
  // The same end-to-end online run over the zero-copy SHM transport:
  // forked worker processes sharing a pre-fork payload arena, with only
  // (slot, length) descriptors crossing the sockets. Blocks/sec against
  // BM_OnlineRuntime (thread) and BM_OnlineRuntimeProcess quantifies
  // what the arena buys back of the process transport's serialization
  // tax; zero_copy_MB/s is the payload volume that moved WITHOUT being
  // copied, wire_MB/s the descriptor traffic that replaced it, and the
  // arena counters expose slot occupancy (arena_leaked must stay 0).
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto plat = platform::Platform::homogeneous(4, 0.01, 0.002, 40);
  const matrix::Partition part(n, n, n, 16);
  util::Rng rng(5);
  const auto a = matrix::Matrix::random(n, n, rng);
  const auto b = matrix::Matrix::random(n, n, rng);
  matrix::Matrix c(n, n, 0.0);
  std::size_t blocks = 0;
  std::size_t updates = 0;
  std::size_t wire_bytes = 0;
  std::size_t zero_copy_bytes = 0;
  std::size_t arena_peak = 0;
  std::size_t arena_leaked = 0;
  double serde_seconds = 0.0;
  std::size_t runs = 0;
  for (auto _ : state) {
    auto scheduler = sched::make_oddoml(plat, part);
    runtime::ExecutorOptions options;
    options.transport = runtime::TransportKind::kShm;
    options.verify = false;
    const runtime::ExecutorReport report =
        runtime::execute_online(scheduler, plat, part, a, b, c, options);
    blocks += static_cast<std::size_t>(report.result.comm_blocks);
    updates += report.updates_performed;
    wire_bytes += report.transport_stats.bytes_sent +
                  report.transport_stats.bytes_received;
    zero_copy_bytes += report.transport_stats.bytes_zero_copied;
    arena_peak =
        std::max(arena_peak, report.transport_stats.arena_peak_slots);
    arena_leaked += report.transport_stats.arena_leaked_slots;
    serde_seconds += report.transport_stats.serde_seconds;
    ++runs;
    benchmark::DoNotOptimize(report.wall_seconds);
  }
  state.counters["blocks/s"] = benchmark::Counter(
      static_cast<double>(blocks), benchmark::Counter::kIsRate);
  state.counters["updates/s"] = benchmark::Counter(
      static_cast<double>(updates), benchmark::Counter::kIsRate);
  state.counters["wire_MB/s"] = benchmark::Counter(
      static_cast<double>(wire_bytes) / (1024.0 * 1024.0),
      benchmark::Counter::kIsRate);
  state.counters["zero_copy_MB/s"] = benchmark::Counter(
      static_cast<double>(zero_copy_bytes) / (1024.0 * 1024.0),
      benchmark::Counter::kIsRate);
  state.counters["serde_ms"] =
      runs > 0 ? serde_seconds * 1e3 / static_cast<double>(runs) : 0.0;
  state.counters["arena_peak"] = static_cast<double>(arena_peak);
  state.counters["arena_leaked"] = static_cast<double>(arena_leaked);
}
BENCHMARK(BM_OnlineRuntimeShm)
    ->Arg(160)
    ->Arg(320)
    ->Arg(640)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_OnlineRuntimeTcp(benchmark::State& state) {
  // The same end-to-end online run over the loopback-TCP transport:
  // forked workers DIAL the master's listen socket, speak the versioned
  // handshake, and every frame crosses a real TCP stream. Blocks/sec
  // against BM_OnlineRuntimeProcess is the price of a dialed TCP stream
  // over a socketpair carrying the same frames.
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto plat = platform::Platform::homogeneous(4, 0.01, 0.002, 40);
  const matrix::Partition part(n, n, n, 16);
  util::Rng rng(5);
  const auto a = matrix::Matrix::random(n, n, rng);
  const auto b = matrix::Matrix::random(n, n, rng);
  matrix::Matrix c(n, n, 0.0);
  std::size_t blocks = 0;
  std::size_t updates = 0;
  std::size_t wire_bytes = 0;
  double serde_seconds = 0.0;
  std::size_t runs = 0;
  for (auto _ : state) {
    auto scheduler = sched::make_oddoml(plat, part);
    runtime::ExecutorOptions options;
    options.transport = runtime::TransportKind::kTcp;
    options.verify = false;
    const runtime::ExecutorReport report =
        runtime::execute_online(scheduler, plat, part, a, b, c, options);
    blocks += static_cast<std::size_t>(report.result.comm_blocks);
    updates += report.updates_performed;
    wire_bytes += report.transport_stats.bytes_sent +
                  report.transport_stats.bytes_received;
    serde_seconds += report.transport_stats.serde_seconds;
    ++runs;
    benchmark::DoNotOptimize(report.wall_seconds);
  }
  state.counters["blocks/s"] = benchmark::Counter(
      static_cast<double>(blocks), benchmark::Counter::kIsRate);
  state.counters["updates/s"] = benchmark::Counter(
      static_cast<double>(updates), benchmark::Counter::kIsRate);
  state.counters["wire_MB/s"] = benchmark::Counter(
      static_cast<double>(wire_bytes) / (1024.0 * 1024.0),
      benchmark::Counter::kIsRate);
  state.counters["serde_ms"] =
      runs > 0 ? serde_seconds * 1e3 / static_cast<double>(runs) : 0.0;
}
BENCHMARK(BM_OnlineRuntimeTcp)
    ->Arg(160)
    ->Arg(320)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

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

  // --kernel / --tune mirror the figure benches (they are consumed
  // here, before google-benchmark sees the argument list): pin the
  // dispatch, set the tune mode, or force an explicit MCxKCxNC.
  std::vector<std::string> args;
  for (int i = 0; i < argc; ++i) {
    const std::string arg(argv[i]);
    if (arg.rfind("--kernel=", 0) == 0) {
      hmxp::matrix::apply_kernel_pin(arg.substr(9));
    } else if (arg.rfind("--tune=", 0) == 0) {
      hmxp::bench::apply_tune_flag(arg.substr(7));
    } else {
      args.push_back(arg);
    }
  }

  // Resolve the packed blocking up front (running the autotune search
  // now, not inside the first timed benchmark) and stamp the resulting
  // configuration into the JSON context: every GFLOP/s figure in this
  // file is attributable to a (variant, blocking, source) triple.
  {
    namespace matrix = hmxp::matrix;
    const matrix::TuneOutcome outcome =
        matrix::resolve_blocking(matrix::active_micro_kernel_variant());
    benchmark::AddCustomContext("hmxp_kernel_variant",
                                matrix::packed_kernel_variant());
    benchmark::AddCustomContext("hmxp_blocking",
                                matrix::blocking_to_string(outcome.params));
    benchmark::AddCustomContext("hmxp_blocking_source", outcome.source);
  }

  // Host-capability-gated registration: on a non-AVX-512 machine the
  // benchmark is absent rather than failing or lying.
  if (hmxp::matrix::cpu_supports_avx512())
    benchmark::RegisterBenchmark("BM_GemmAvx512", &BM_GemmAvx512)
        ->Arg(512)
        ->Arg(1024);

  bool has_out = false;
  for (const std::string& arg : args)
    if (arg == "--benchmark_out" || arg.rfind("--benchmark_out=", 0) == 0)
      has_out = true;
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
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
