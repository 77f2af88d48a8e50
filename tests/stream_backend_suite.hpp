// The stream transport's parametrized suite: forked worker processes over
// one byte stream each, whose fd is a pre-fork socketpair end (kProcess)
// or a dial to the master's loopback listen socket (kTcp). The checks are
// written once here; test_process_backend.cpp and test_tcp_backend.cpp
// each include this header from their one translation unit and
// instantiate StreamBackend for their own fd source.
//
// Per fd source: live and replay parity with the thread transport for
// every registered scheduler, the serialization counters, buffer
// credits as Endpoint::can_send reports them, a shutdown whose goodbye
// waits behind queued operands, a SIGKILL'd worker
// recovered bit-for-bit, strict mode surfacing the child's root cause,
// kernel-configuration propagation into forked workers, the core
// facade, and backend-name parsing.
//
// Everything that forks SKIPS under ThreadSanitizer (fork from a
// multithreaded parent breaks the TSan runtime).
#pragma once

#include <gtest/gtest.h>

#include <csignal>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "core/run.hpp"
#include "inbox_probe.hpp"
#include "matrix/kernel_dispatch.hpp"
#include "matrix/matrix.hpp"
#include "runtime/executor.hpp"
#include "sched/registry.hpp"
#include "sim/scheduler.hpp"
#include "util/rng.hpp"

#if defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define HMXP_TSAN 1
#endif
#elif defined(__SANITIZE_THREAD__)
#define HMXP_TSAN 1
#endif

#if defined(HMXP_TSAN)
#define HMXP_SKIP_UNDER_TSAN()                                    \
  GTEST_SKIP() << "this transport forks worker processes, which " \
                  "ThreadSanitizer does not support"
#else
#define HMXP_SKIP_UNDER_TSAN() \
  do {                         \
  } while (false)
#endif

namespace hmxp::runtime {
namespace {

matrix::Matrix random_matrix(std::size_t rows, std::size_t cols,
                             std::uint64_t seed) {
  util::Rng rng(seed);
  return matrix::Matrix::random(rows, cols, rng);
}

/// Heterogeneous instance for the replay half of the parity suite:
/// pairwise distinct link speeds, compute rates and memories, so the
/// replayed schedules exercise unequal carve widths and prefetch
/// depths on both transports.
platform::Platform hetero_platform() {
  std::vector<platform::WorkerSpec> specs = {
      {0.010, 0.001, 30, "alpha"},
      {0.013, 0.002, 60, "beta"},
      {0.017, 0.0015, 140, "gamma"},
  };
  return platform::Platform("parity", specs);
}

struct TransportRun {
  ExecutorReport report;
  std::vector<sim::Decision> decisions;
  matrix::Matrix c;
};

TransportRun run_transport(sim::Scheduler& scheduler, TransportKind transport,
                           const platform::Platform& plat,
                           const matrix::Partition& part) {
  const auto a = random_matrix(part.n_a(), part.n_ab(), 11);
  const auto b = random_matrix(part.n_ab(), part.n_b(), 12);
  TransportRun run{.report = {}, .decisions = {},
                   .c = random_matrix(part.n_a(), part.n_b(), 13)};
  ExecutorOptions options;
  options.transport = transport;
  run.report = execute_online(scheduler, plat, part, a, b, run.c, options,
                              &run.decisions);
  return run;
}

TransportRun run_live(const std::string& algorithm, TransportKind transport,
                      const platform::Platform& plat,
                      const matrix::Partition& part) {
  auto scheduler = sched::Registry::instance().make(algorithm, plat, part);
  return run_transport(*scheduler, transport, plat, part);
}

/// One fd source of the stream transport, with its names at every API
/// level.
struct StreamKind {
  TransportKind transport;
  core::Backend backend;
  const char* name;
  std::vector<std::string> aliases;  // further parse_backend spellings
};

std::string stream_kind_name(const ::testing::TestParamInfo<StreamKind>& info) {
  return std::string(info.param.name);
}

class StreamBackend : public ::testing::TestWithParam<StreamKind> {};

TEST_P(StreamBackend, EveryRegisteredSchedulerLiveParityWithThreadTransport) {
  HMXP_SKIP_UNDER_TSAN();
  // Live scheduling reacts to ACTUAL completion timing, which no two
  // runs share exactly (that is the point of the online backend), so
  // the cross-transport guarantee for live runs is the order-invariant
  // one, on a homogeneous platform where every carve has the same
  // width: same decision count, full coverage on both, and -- because
  // every layout groups the same k sets -- bit-for-bit the same C
  // whatever the interleaving. The replay test below pins exact
  // decision sequences.
  const auto plat = platform::Platform::homogeneous(3, 0.01, 0.002, 40);
  const matrix::Partition part(52, 70, 100, 8);  // q=8: r=7, t=9, s=13

  for (const std::string& algorithm : sched::Registry::instance().names()) {
    SCOPED_TRACE(algorithm);
    const TransportRun threaded =
        run_live(algorithm, TransportKind::kThread, plat, part);
    const TransportRun streamed =
        run_live(algorithm, GetParam().transport, plat, part);

    // Both transports complete every registered scheduler with a
    // verified product.
    EXPECT_TRUE(threaded.report.verified);
    EXPECT_TRUE(streamed.report.verified);
    EXPECT_EQ(threaded.report.transport, "thread");
    EXPECT_EQ(streamed.report.transport, GetParam().name);
    EXPECT_EQ(streamed.report.workers_failed, 0);
    EXPECT_EQ(streamed.report.workers_rejoined, 0);

    // SP-* decision streams react to measured wall drift: a scheduling
    // hiccup can legitimately trip the speculation gate on one
    // transport and not the other, adding duplicate/cancel decisions
    // and wasted twin updates. Their guarantee is the bit-for-bit C
    // below; the counts are only pinned for drift-blind schedulers.
    if (algorithm.rfind("SP-", 0) != 0) {
      EXPECT_EQ(streamed.decisions.size(), threaded.decisions.size());
      EXPECT_EQ(streamed.report.updates_performed,
                threaded.report.updates_performed);
      EXPECT_EQ(streamed.report.chunks_processed,
                threaded.report.chunks_processed);
    }
    EXPECT_EQ(matrix::Matrix::max_abs_diff(streamed.c, threaded.c), 0.0);
  }
}

TEST_P(StreamBackend, EveryRegisteredSchedulerReplaysIdentically) {
  HMXP_SKIP_UNDER_TSAN();
  // The deterministic half: simulate each scheduler, then execute its
  // recorded schedule on both transports. Decision sequences must match
  // the simulation exactly on either transport, the model projection
  // must agree to the bit, and the two transports must produce
  // bit-for-bit the same C -- the statement that moving the data plane
  // out of the address space changed NOTHING about execution.
  const platform::Platform plat = hetero_platform();
  const matrix::Partition part(52, 70, 100, 8);

  for (const std::string& algorithm : sched::Registry::instance().names()) {
    SCOPED_TRACE(algorithm);
    auto probe = sched::Registry::instance().make(algorithm, plat, part);
    std::vector<sim::Decision> simulated;
    const sim::RunResult sim_result =
        sim::simulate(*probe, plat, part, false, &simulated);

    TransportRun runs[2];
    const TransportKind kinds[2] = {TransportKind::kThread,
                                    GetParam().transport};
    for (int which = 0; which < 2; ++which) {
      sim::ReplayScheduler replay(algorithm, simulated);
      runs[which] = run_transport(replay, kinds[which], plat, part);
      const TransportRun& run = runs[which];
      EXPECT_TRUE(run.report.verified);
      ASSERT_EQ(run.decisions.size(), simulated.size());
      for (std::size_t i = 0; i < simulated.size(); ++i) {
        EXPECT_EQ(run.decisions[i].comm, simulated[i].comm)
            << transport_kind_name(kinds[which]) << " decision " << i;
        EXPECT_EQ(run.decisions[i].worker, simulated[i].worker)
            << transport_kind_name(kinds[which]) << " decision " << i;
      }
      EXPECT_DOUBLE_EQ(run.report.result.makespan, sim_result.makespan);
      EXPECT_EQ(run.report.result.comm_blocks, sim_result.comm_blocks);
    }
    EXPECT_EQ(matrix::Matrix::max_abs_diff(runs[1].c, runs[0].c), 0.0);
  }
}

TEST_P(StreamBackend, SerializationCountersReportTheDataPlaneCost) {
  HMXP_SKIP_UNDER_TSAN();
  const auto plat = platform::Platform::homogeneous(3, 0.01, 0.002, 40);
  const matrix::Partition part(40, 40, 56, 8);

  const TransportRun threaded =
      run_live("ODDOML", TransportKind::kThread, plat, part);
  const TransportRun streamed =
      run_live("ODDOML", GetParam().transport, plat, part);

  // The thread transport moves messages zero-copy: counted, not encoded.
  EXPECT_GT(threaded.report.transport_stats.messages_sent, 0u);
  EXPECT_EQ(threaded.report.transport_stats.bytes_sent, 0u);
  EXPECT_DOUBLE_EQ(threaded.report.transport_stats.serde_seconds, 0.0);
  // The stream transport serializes every frame and says what it paid.
  EXPECT_EQ(streamed.report.transport_stats.messages_sent,
            threaded.report.transport_stats.messages_sent);
  EXPECT_EQ(streamed.report.transport_stats.messages_received,
            threaded.report.transport_stats.messages_received);
  EXPECT_GT(streamed.report.transport_stats.bytes_sent, 0u);
  EXPECT_GT(streamed.report.transport_stats.bytes_received, 0u);
  EXPECT_GT(streamed.report.transport_stats.serde_seconds, 0.0);
}

TEST_P(StreamBackend, CanSendFollowsTheWorkersCredits) {
  HMXP_SKIP_UNDER_TSAN();
  expect_can_send_tracks_the_inbox(GetParam().transport);
}

TEST_P(StreamBackend, ShutdownStopsAtTheGoodbyeBehindQueuedOperands) {
  HMXP_SKIP_UNDER_TSAN();
  expect_shutdown_stops_at_the_goodbye(GetParam().transport);
}

TEST_P(StreamBackend, SigkilledWorkerProcessRecoversBitForBit) {
  HMXP_SKIP_UNDER_TSAN();
  // A SIGKILL'd child gets no chance to unwind, flush, or say goodbye:
  // the master sees a raw EOF mid-run. Under tolerate_faults the FT
  // policy must absorb it -- endpoint drained, mirror rolled back, lost
  // chunk re-assigned -- and the recovered C must equal the fault-free
  // product bit for bit (one-k-per-step layout: the same per-element
  // accumulation order, whoever adopts the blocks).
  const matrix::Partition part(40, 40, 40, 8);
  const auto plat = platform::Platform::homogeneous(3, 0.01, 0.002, 40);
  const auto a = random_matrix(40, 40, 21);
  const auto b = random_matrix(40, 40, 22);
  const matrix::Matrix c_initial = random_matrix(40, 40, 23);

  matrix::Matrix c_clean = c_initial;
  {
    auto scheduler =
        sched::Registry::instance().make("FT-ODDOML", plat, part);
    ExecutorOptions options;
    options.transport = GetParam().transport;
    const ExecutorReport report =
        execute_online(*scheduler, plat, part, a, b, c_clean, options);
    EXPECT_TRUE(report.verified);
    EXPECT_EQ(report.workers_failed, 0);
  }

  matrix::Matrix c_faulty = c_initial;
  {
    auto scheduler =
        sched::Registry::instance().make("FT-ODDOML", plat, part);
    ExecutorOptions options;
    options.transport = GetParam().transport;
    options.tolerate_faults = true;
    // Runs inside the forked child: a REAL SIGKILL, not an exception.
    options.fault_hook = [](int worker, std::size_t step) {
      if (worker == 1 && step == 1) std::raise(SIGKILL);
    };
    const ExecutorReport report =
        execute_online(*scheduler, plat, part, a, b, c_faulty, options);
    EXPECT_TRUE(report.verified);
    EXPECT_EQ(report.workers_failed, 1);
  }

  EXPECT_EQ(matrix::Matrix::max_abs_diff(c_faulty, c_clean), 0.0);
}

TEST_P(StreamBackend, StrictModeSurfacesTheChildsRootCause) {
  HMXP_SKIP_UNDER_TSAN();
  // A child that dies by EXCEPTION ships its what() as a kError frame
  // before exiting, so strict mode rethrows the same root cause the
  // thread transport would.
  const matrix::Partition part(40, 40, 40, 8);
  const auto plat = platform::Platform::homogeneous(3, 0.01, 0.002, 40);
  const auto a = random_matrix(40, 40, 31);
  const auto b = random_matrix(40, 40, 32);
  matrix::Matrix c(40, 40, 0.0);

  auto scheduler = sched::Registry::instance().make("ODDOML", plat, part);
  ExecutorOptions options;
  options.transport = GetParam().transport;
  options.faults.add(/*worker=*/1, /*at=*/0.0);
  try {
    execute_online(*scheduler, plat, part, a, b, c, options);
    FAIL() << "expected the scheduled fault to propagate";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("scheduled fault"),
              std::string::npos)
        << error.what();
  }
  // The run failed cleanly (children reaped): a retry works.
  auto retry = sched::Registry::instance().make("ODDOML", plat, part);
  options = {};
  options.transport = GetParam().transport;
  const ExecutorReport report =
      execute_online(*retry, plat, part, a, b, c, options);
  EXPECT_TRUE(report.verified);
}

TEST_P(StreamBackend, ForcedKernelTierGovernsForkedWorkers) {
  HMXP_SKIP_UNDER_TSAN();
  // Pin an off-default tier in the master: every forked worker must
  // boot with the same pin (each child re-asserts it and reports its
  // active configuration in the handshake; a mismatch fails the worker).
  matrix::force_kernel_tier(matrix::KernelTier::kTiled);
  const struct Unpin {
    ~Unpin() { matrix::force_kernel_tier(std::nullopt); }
  } unpin;
  ASSERT_EQ(matrix::active_kernel_tier(), matrix::KernelTier::kTiled);

  const matrix::Partition part(40, 40, 56, 8);
  const auto plat = platform::Platform::homogeneous(3, 0.01, 0.002, 40);
  const auto a = random_matrix(40, 40, 41);
  const auto b = random_matrix(40, 56, 42);
  matrix::Matrix c(40, 56, 0.25);

  auto scheduler = sched::Registry::instance().make("ODDOML", plat, part);
  ExecutorOptions options;
  options.transport = GetParam().transport;
  const ExecutorReport report =
      execute_online(*scheduler, plat, part, a, b, c, options);
  EXPECT_TRUE(report.verified);
  EXPECT_EQ(report.workers_failed, 0);
  EXPECT_EQ(matrix::active_kernel_tier(), matrix::KernelTier::kTiled);
}

TEST_P(StreamBackend, CoreRunsCellsOnTheBackend) {
  HMXP_SKIP_UNDER_TSAN();
  const matrix::Partition part(40, 40, 56, 8);
  const auto plat = platform::Platform::homogeneous(3, 0.01, 0.002, 40);

  const core::RunReport simulated = core::run_algorithm("ORROML", plat, part);
  core::OnlineOptions online;
  online.backend = GetParam().backend;
  online.data_seed = 7;
  const core::RunReport executed =
      core::run_algorithm_online("ORROML", plat, part, online);

  EXPECT_EQ(executed.backend, GetParam().backend);
  EXPECT_TRUE(executed.online_verified);
  EXPECT_GT(executed.online_wall_seconds, 0.0);
  // Deterministic policy: identical decisions, identical projection.
  EXPECT_DOUBLE_EQ(executed.result.makespan, simulated.result.makespan);
  EXPECT_EQ(executed.result.decisions, simulated.result.decisions);

  // The experiment grid switches the whole run with one knob.
  core::ExperimentOptions grid;
  grid.threads = 1;
  grid.backend = GetParam().backend;
  grid.online.data_seed = 7;
  const auto results = core::run_experiment(
      {core::Instance{"cell", plat, part}}, {"ORROML", "ODDOML"}, grid);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_TRUE(results[0].cell_ok(0)) << results[0].errors[0];
  EXPECT_TRUE(results[0].cell_ok(1)) << results[0].errors[1];
  EXPECT_EQ(results[0].reports[0].backend, GetParam().backend);
  EXPECT_DOUBLE_EQ(results[0].reports[0].result.makespan,
                   simulated.result.makespan);
}

TEST_P(StreamBackend, BackendNamesParseBothWays) {
  EXPECT_STREQ(core::backend_name(GetParam().backend), GetParam().name);
  EXPECT_STREQ(transport_kind_name(GetParam().transport), GetParam().name);
  EXPECT_EQ(core::parse_backend(GetParam().name), GetParam().backend);
  EXPECT_EQ(parse_transport_kind(GetParam().name), GetParam().transport);
  for (const std::string& alias : GetParam().aliases) {
    SCOPED_TRACE(alias);
    EXPECT_EQ(core::parse_backend(alias), GetParam().backend);
    EXPECT_EQ(parse_transport_kind(alias), GetParam().transport);
  }
  EXPECT_EQ(core::parse_backend("THREAD"), core::Backend::kOnline);
  EXPECT_EQ(core::parse_backend("sim"), core::Backend::kSim);
  EXPECT_EQ(core::parse_backend("bogus"), std::nullopt);
  EXPECT_THROW(
      {
        core::OnlineOptions invalid;
        invalid.backend = core::Backend::kSim;
        core::run_algorithm_online(
            "ODDOML", platform::Platform::homogeneous(2, 0.01, 0.002, 40),
            matrix::Partition(24, 24, 24, 8), invalid);
      },
      std::invalid_argument);
}

}  // namespace
}  // namespace hmxp::runtime
