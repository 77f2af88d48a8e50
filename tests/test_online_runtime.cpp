// Tests for the online execution backend: live demand-driven scheduling
// on a heterogeneous (and mid-run-perturbed) platform, sim-vs-runtime
// decision parity, worker-exception propagation, the verification
// failure path, the dynamic-perturbation hook on the simulator side,
// EWMA speed calibration on both backends, bandwidth (c_i) perturbation
// parity through the throttled channel, the mid-idle worker-death
// regression, and a straggler that must not stall the other workers.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>

#include "core/experiment.hpp"
#include "core/run.hpp"
#include "platform/calibration.hpp"
#include "platform/perturbation.hpp"
#include "runtime/executor.hpp"
#include "sched/demand_driven.hpp"
#include "sched/registry.hpp"
#include "sched/round_robin.hpp"
#include "util/rng.hpp"

namespace hmxp::runtime {
namespace {

matrix::Matrix random_matrix(std::size_t rows, std::size_t cols,
                             std::uint64_t seed) {
  util::Rng rng(seed);
  return matrix::Matrix::random(rows, cols, rng);
}

// ---- live demand-driven on a heterogeneous, time-varying platform ----------

TEST(OnlineRuntime, DemandDrivenHeterogeneousSlowdownVerifies) {
  // Odd sizes exercise edge blocks; static slowdowns make the workers
  // really heterogeneous and a perturbation flips the balance mid-run.
  const matrix::Partition part(52, 70, 100, 8);  // q=8: r=7, t=9, s=13
  std::vector<platform::WorkerSpec> specs = {
      {0.01, 0.001, 30, "small"},
      {0.01, 0.002, 60, "mid"},
      {0.005, 0.001, 140, "big"},
  };
  const platform::Platform plat("hetero", specs);
  const auto a = random_matrix(52, 70, 1);
  const auto b = random_matrix(70, 100, 2);
  matrix::Matrix c = random_matrix(52, 100, 3);

  auto scheduler = sched::make_oddoml(plat, part);
  ExecutorOptions options;
  options.compute_slowdown = {1, 3, 2};
  // Mid-run (wall clock) the big worker slows 8x and the small one
  // recovers; the scheduler only sees this through actual completions.
  options.perturbation.add(/*worker=*/2, /*at=*/0.002, /*factor=*/8.0);
  options.perturbation.add(/*worker=*/1, /*at=*/0.004, /*factor=*/0.5);

  const ExecutorReport report =
      execute_online(scheduler, plat, part, a, b, c, options);

  EXPECT_TRUE(report.verified);
  EXPECT_LT(report.max_abs_error, 1e-10);
  EXPECT_EQ(report.updates_performed, 7u * 13u * 9u);
  // The report carries the simulator-shaped RunResult.
  EXPECT_EQ(report.result.scheduler_name, "ODDOML");
  EXPECT_GT(report.result.makespan, 0.0);
  EXPECT_GT(report.result.decisions, 0u);
  EXPECT_EQ(report.result.updates,
            static_cast<model::BlockCount>(7 * 13 * 9));
  EXPECT_GE(report.result.workers_enrolled, 2);
}

// ---- pooled data plane: no per-step heap allocation -------------------------

TEST(OnlineRuntime, SteadyStateMasterLoopDoesNotAllocatePerStep) {
  // Two runs over the same platform where the second has twice the
  // inner (k) extent, i.e. twice the operand steps. With the pooled
  // data plane, buffer-pool ALLOCATIONS are a warm-up constant set by
  // the number of distinct payload shapes in flight -- they must not
  // scale with the number of scheduled steps, while acquires do.
  const auto plat = platform::Platform::homogeneous(3, 0.01, 0.002, 40);
  const auto run = [&plat](std::size_t n_ab) {
    const matrix::Partition part(40, n_ab, 48, 8);
    const auto a = random_matrix(40, n_ab, 21);
    const auto b = random_matrix(n_ab, 48, 22);
    matrix::Matrix c(40, 48, 0.0);
    auto scheduler = sched::make_oddoml(plat, part);
    ExecutorOptions options;
    options.verify = false;
    return execute_online(scheduler, plat, part, a, b, c, options);
  };

  const ExecutorReport base = run(64);
  const ExecutorReport doubled = run(128);

  const BufferPool::Stats& s1 = base.buffer_pool;
  const BufferPool::Stats& s2 = doubled.buffer_pool;
  // Twice the steps really happened...
  EXPECT_GT(doubled.updates_performed, base.updates_performed);
  EXPECT_GT(s2.acquires, s1.acquires + s1.acquires / 2);
  // ...but the heap was only touched during warm-up: every steady-state
  // checkout was served by recycling. Allocations are bounded by the
  // worst-case in-flight buffer population (workers x bounded-inbox
  // messages x payloads per message, ~30 here -- a bound set by channel
  // capacities and independent of master/worker interleaving), never by
  // the step count: a per-step allocator would be in the hundreds on
  // the doubled run (2 operand buffers per SendAB alone).
  EXPECT_EQ(s1.allocations + s1.reuses, s1.acquires);
  EXPECT_EQ(s2.allocations + s2.reuses, s2.acquires);
  EXPECT_LE(s1.allocations, 48u);
  EXPECT_LE(s2.allocations, 48u);
  // Equivalently from the recycling side: at most the warm-up
  // population ever came from the heap. (A fixed 3/4 reuse RATIO would
  // overclaim here -- when contention keeps more buffers in flight the
  // ratio dips while the allocation bound still holds, which is the
  // invariant that actually matters.)
  EXPECT_GE(s2.reuses + 48u, s2.acquires);
}

// ---- readiness: serve the workers that can act --------------------------

TEST(OnlineRuntime, GatedStragglerDoesNotStallTheOtherWorkers) {
  // Worker 0 parks in its first step until workers 1 and 2 have
  // finished 16 steps between them. The model mirror believes the three
  // equal workers progress alike, so a master that follows its ranking
  // keeps feeding worker 0, blocks on its full inbox, and starves the
  // others: the gate could only open at its 5 s timeout. A master that
  // serves whichever worker can act keeps 1 and 2 busy, so the gate
  // opens by their progress.
  const matrix::Partition part(64, 64, 64, 8);  // r = s = t = 8
  const auto plat = platform::Platform::homogeneous(3, 0.01, 0.002, 21);
  const auto a = random_matrix(64, 64, 81);
  const auto b = random_matrix(64, 64, 82);
  matrix::Matrix c(64, 64, 0.0);

  struct Gate {
    std::mutex mutex;
    std::condition_variable progressed;
    int others_started = 0;  // steps workers 1 and 2 entered
    bool used = false;
    bool opened_by_progress = false;
  };
  const auto gate = std::make_shared<Gate>();
  ExecutorOptions options;
  options.fault_hook = [gate](int worker, std::size_t) {
    std::unique_lock lock(gate->mutex);
    if (worker != 0) {
      ++gate->others_started;
      gate->progressed.notify_all();
      return;
    }
    if (gate->used) return;
    gate->used = true;
    // Each of workers 1 and 2 has at most one step in flight, so 18
    // entered steps mean at least 16 finished.
    gate->opened_by_progress = gate->progressed.wait_for(
        lock, std::chrono::seconds(5),
        [&] { return gate->others_started >= 18; });
  };

  auto scheduler = sched::make_oddoml(plat, part);
  const ExecutorReport report =
      execute_online(scheduler, plat, part, a, b, c, options);

  EXPECT_TRUE(gate->opened_by_progress);
  EXPECT_TRUE(report.verified);
}

// ---- sim vs runtime decision parity ----------------------------------------

TEST(OnlineRuntime, DecisionSequenceParityForDeterministicPolicy) {
  // Round-robin decides from progress structure only (never from
  // times), so the live runtime must reproduce the simulator's decision
  // sequence exactly -- even on a heterogeneous platform.
  const matrix::Partition part(96, 64, 160, 8);
  std::vector<platform::WorkerSpec> specs = {
      {0.01, 0.001, 21, "tiny"},
      {0.01, 0.001, 60, "small"},
      {0.005, 0.002, 140, "big"},
  };
  const platform::Platform plat("hetero", specs);

  auto sim_scheduler = sched::make_orroml(plat, part);
  std::vector<sim::Decision> simulated;
  const sim::RunResult sim_result =
      sim::simulate(sim_scheduler, plat, part, false, &simulated);

  const auto a = random_matrix(96, 64, 4);
  const auto b = random_matrix(64, 160, 5);
  matrix::Matrix c(96, 160, 0.25);
  auto live_scheduler = sched::make_orroml(plat, part);
  std::vector<sim::Decision> live;
  const ExecutorReport report =
      execute_online(live_scheduler, plat, part, a, b, c, {}, &live);

  EXPECT_EQ(report.result.decisions, sim_result.decisions);
  ASSERT_EQ(live.size(), simulated.size());
  for (std::size_t i = 0; i < live.size(); ++i) {
    EXPECT_EQ(live[i].comm, simulated[i].comm) << "decision " << i;
    EXPECT_EQ(live[i].worker, simulated[i].worker) << "decision " << i;
  }
  // Same decisions -> same model projection.
  EXPECT_DOUBLE_EQ(report.result.makespan, sim_result.makespan);
  EXPECT_EQ(report.result.comm_blocks, sim_result.comm_blocks);
}

TEST(OnlineRuntime, DecisionCountParityDemandDrivenHomogeneous) {
  // Demand-driven may reorder online (actual completions beat model
  // projections), but on a homogeneous platform every carve has the
  // same width, so the decision COUNT is order-invariant.
  const matrix::Partition part(52, 70, 100, 8);
  const auto plat = platform::Platform::homogeneous(4, 0.01, 0.002, 40);

  auto sim_scheduler = sched::make_oddoml(plat, part);
  const sim::RunResult sim_result = sim::simulate(sim_scheduler, plat, part);

  const auto a = random_matrix(52, 70, 6);
  const auto b = random_matrix(70, 100, 7);
  matrix::Matrix c(52, 100, 0.0);
  auto live_scheduler = sched::make_oddoml(plat, part);
  const ExecutorReport report =
      execute_online(live_scheduler, plat, part, a, b, c);

  EXPECT_TRUE(report.verified);
  EXPECT_EQ(report.result.decisions, sim_result.decisions);
}

// ---- online calibration -----------------------------------------------------

TEST(Calibration, EwmaConvergesToSteppedChangeWithinBoundedObservations) {
  platform::SpeedEstimate estimate;
  EXPECT_FALSE(estimate.calibrated());
  EXPECT_DOUBLE_EQ(estimate.drift(), 1.0);
  EXPECT_DOUBLE_EQ(estimate.value_or(0.007), 0.007);

  // Steady observations: the estimate IS the observation, drift 1.
  for (int i = 0; i < 5; ++i) estimate.observe(0.002, 0.25);
  EXPECT_DOUBLE_EQ(estimate.value_or(0.007), 0.002);
  EXPECT_DOUBLE_EQ(estimate.drift(), 1.0);

  // Stepped 2x slowdown: with alpha = 0.25 the EWMA covers 95% of the
  // step within 11 observations (1 - 0.75^11 > 0.95) -- a BOUNDED
  // number, which is what makes mid-run adaptation possible at all.
  for (int i = 0; i < 11; ++i) estimate.observe(0.004, 0.25);
  EXPECT_GT(estimate.value_or(0.0), 0.002 + 0.95 * 0.002);
  EXPECT_LE(estimate.value_or(0.0), 0.004);
  EXPECT_NEAR(estimate.drift(), 2.0, 0.1);
}

TEST(Calibration, EngineCalibratedSpeedTracksGroundTruthSlowdown) {
  // The engine observes every projected step, so after a from-the-start
  // 3x slowdown its calibrated w sits at exactly 3 w_i while the
  // untouched worker stays at w_i. Drift is measured against the run's
  // OWN first observation, so an always-slow worker reads as drift 1 --
  // drift flags change, calibrated_w carries the absolute estimate.
  const matrix::Partition part(52, 70, 100, 8);
  const auto plat = platform::Platform::homogeneous(2, 0.001, 0.01, 40);
  platform::SlowdownSchedule slowdown;
  slowdown.add(/*worker=*/1, /*at=*/0.0, /*factor=*/3.0);

  sim::Engine engine(sim::InstanceContext::make(plat, part, slowdown),
                     /*record_trace=*/false);
  auto scheduler = sched::make_oddoml(plat, part);
  sim::run(scheduler, engine);

  EXPECT_DOUBLE_EQ(engine.calibrated_w(0), 0.01);
  EXPECT_NEAR(engine.calibrated_w(1), 0.03, 1e-9);
  EXPECT_DOUBLE_EQ(engine.observed_drift(0), 1.0);
  EXPECT_NEAR(engine.observed_drift(1), 1.0, 1e-9);
}

TEST(Calibration, EngineDriftDetectsMidRunSlowdown) {
  // A slowdown that hits MID-run moves the EWMA off its baseline: the
  // drift converges toward the true factor as post-change observations
  // accumulate (bounded-observation convergence, engine edition).
  const matrix::Partition part(52, 70, 100, 8);
  const auto plat = platform::Platform::homogeneous(2, 0.001, 0.01, 40);

  auto probe = sched::make_oddoml(plat, part);
  const sim::RunResult baseline = sim::simulate(probe, plat, part);

  platform::SlowdownSchedule slowdown;
  slowdown.add(/*worker=*/1, baseline.makespan * 0.4, /*factor=*/3.0);
  sim::Engine engine(sim::InstanceContext::make(plat, part, slowdown),
                     /*record_trace=*/false);
  auto scheduler = sched::make_oddoml(plat, part);
  sim::run(scheduler, engine);

  EXPECT_DOUBLE_EQ(engine.observed_drift(0), 1.0);
  EXPECT_GT(engine.observed_drift(1), 2.0);
  EXPECT_GT(engine.calibrated_w(1), 0.02);
  EXPECT_LE(engine.calibrated_w(1), 0.03 + 1e-12);
}

TEST(Calibration, SimAndOnlineCalibratedEstimatesAgreeOnDeterministicPlatform) {
  // On a deterministic (unperturbed) platform both backends must settle
  // on "no drift": the simulator exactly (its observations ARE the
  // model costs), the runtime within the jitter of real step timings.
  const matrix::Partition part(52, 70, 100, 8);
  const auto plat = platform::Platform::homogeneous(3, 0.01, 0.002, 40);

  sim::Engine engine(plat, part);
  auto sim_scheduler = sched::make_oddoml(plat, part);
  sim::run(sim_scheduler, engine);
  for (int w = 0; w < plat.size(); ++w) {
    EXPECT_DOUBLE_EQ(engine.calibrated_w(w), plat.worker(w).w);
    EXPECT_DOUBLE_EQ(engine.observed_drift(w), 1.0);
  }

  // The online half measures real wall clocks, so give it chunky steps
  // (32x32 blocks, several updates per step) that dwarf timer jitter,
  // and smooth hard.
  const matrix::Partition online_part(96, 128, 192, 32);  // r=3, t=4, s=6
  const auto online_plat =
      platform::Platform::homogeneous(3, 0.01, 0.002, 20);
  const auto a = random_matrix(96, 128, 31);
  const auto b = random_matrix(128, 192, 32);
  matrix::Matrix c(96, 192, 0.0);
  auto live_scheduler = sched::make_oddoml(online_plat, online_part);
  ExecutorOptions options;
  options.verify = false;
  options.calibration.alpha = 0.1;
  const ExecutorReport report = execute_online(live_scheduler, online_plat,
                                               online_part, a, b, c, options);
  ASSERT_EQ(report.observed_drift.size(), static_cast<std::size_t>(3));
  // Wall clocks on a loaded CI machine can drift globally (sanitizer
  // runs, parallel tests), so the robust agreement statement is
  // cross-worker: equal workers share the machine's noise, so no
  // worker may read several times slower than its peers -- which is
  // exactly what the injected per-worker slowdowns elsewhere do read
  // as. A wide absolute band still catches unit mistakes.
  const auto [lo_it, hi_it] = std::minmax_element(
      report.observed_drift.begin(), report.observed_drift.end());
  EXPECT_LT(*hi_it / *lo_it, 4.0);
  EXPECT_GT(*lo_it, 0.05);
  EXPECT_LT(*hi_it, 20.0);
}

// ---- bandwidth (c_i) perturbation -------------------------------------------

TEST(BandwidthPerturbation, SimulatorStretchesMakespanOnSlowedLink) {
  // Communication-bound instance: slowing one worker's link 8x must
  // stretch the makespan, exactly like the compute perturbation does.
  const matrix::Partition part(96, 64, 160, 8);
  const auto plat = platform::Platform::homogeneous(2, 0.02, 0.001, 40);

  auto baseline_scheduler = sched::make_oddoml(plat, part);
  const sim::RunResult baseline = sim::simulate(baseline_scheduler, plat, part);

  platform::SlowdownSchedule schedule;
  schedule.add_bandwidth(/*worker=*/0, /*at=*/0.0, /*factor=*/8.0);
  EXPECT_TRUE(schedule.has_bandwidth_events());
  // Bandwidth events leave the compute factor untouched and vice versa.
  EXPECT_DOUBLE_EQ(schedule.factor(0, 1.0), 1.0);
  EXPECT_DOUBLE_EQ(schedule.bandwidth_factor(0, 1.0), 8.0);

  auto perturbed_scheduler = sched::make_oddoml(plat, part);
  const sim::RunResult perturbed = sim::simulate(
      perturbed_scheduler, plat, part, schedule, /*record_trace=*/true);
  EXPECT_GT(perturbed.makespan, baseline.makespan);
  EXPECT_TRUE(perturbed.trace.one_port_respected());
  EXPECT_TRUE(perturbed.trace.compute_serialized());
}

TEST(BandwidthPerturbation, ThrottledRuntimeChannelMatchesSimOrdering) {
  // The same c_i experiment on real threads: the master's throttled
  // channel charges wall time per block, scaled by the drifting
  // bandwidth factor -- so the slowed-link run must take longer on the
  // wall too, giving matching makespan ordering across backends.
  const matrix::Partition part(40, 48, 64, 8);
  const auto plat = platform::Platform::homogeneous(3, 0.01, 0.002, 40);
  const auto a = random_matrix(40, 48, 41);
  const auto b = random_matrix(48, 64, 42);

  const auto wall_with = [&](double factor) {
    matrix::Matrix c(40, 64, 0.0);
    auto scheduler = sched::make_oddoml(plat, part);
    ExecutorOptions options;
    options.verify = false;
    options.throttle_block_seconds = 2e-4;
    if (factor > 1.0) {
      options.perturbation.add_bandwidth(0, 0.0, factor);
      options.perturbation.add_bandwidth(1, 0.0, factor);
    }
    return execute_online(scheduler, plat, part, a, b, c, options)
        .wall_seconds;
  };

  const double nominal = wall_with(1.0);
  const double slowed = wall_with(6.0);
  EXPECT_GT(slowed, nominal);
}

// ---- failure paths ---------------------------------------------------------

TEST(OnlineRuntime, MidIdleWorkerDeathSurfacesInsteadOfHanging) {
  // Regression for the silent-abort path: a worker that dies BETWEEN
  // steps (here: on receiving its first message, before any compute)
  // used to leave the master waiting on completions that could never
  // arrive. Failure detection is eager now -- the run must either
  // throw (strict mode) or recover (tolerant mode + FT policy), never
  // hang.
  const matrix::Partition part(40, 40, 40, 8);
  const auto plat = platform::Platform::homogeneous(3, 0.01, 0.002, 40);
  const auto a = random_matrix(40, 40, 51);
  const auto b = random_matrix(40, 40, 52);

  {  // strict mode: the scheduled fault propagates as the root cause
    matrix::Matrix c(40, 40, 0.0);
    auto scheduler = sched::make_oddoml(plat, part);
    ExecutorOptions options;
    options.faults.add(/*worker=*/1, /*at=*/0.0);
    try {
      execute_online(scheduler, plat, part, a, b, c, options);
      FAIL() << "expected the scheduled fault to propagate";
    } catch (const std::runtime_error& error) {
      EXPECT_NE(std::string(error.what()).find("scheduled fault"),
                std::string::npos);
    }
  }
  {  // tolerant mode: the FT policy finishes on the survivors
    matrix::Matrix c(40, 40, 0.0);
    auto scheduler =
        sched::Registry::instance().make("FT-ODDOML", plat, part);
    ExecutorOptions options;
    options.faults.add(/*worker=*/1, /*at=*/0.0);
    options.tolerate_faults = true;
    const ExecutorReport report =
        execute_online(*scheduler, plat, part, a, b, c, options);
    EXPECT_TRUE(report.verified);
    EXPECT_EQ(report.workers_failed, 1);
  }
}

TEST(OnlineRuntime, WorkerExceptionPropagatesToMaster) {
  const matrix::Partition part(40, 40, 40, 8);
  const auto plat = platform::Platform::homogeneous(3, 0.01, 0.002, 40);
  const auto a = random_matrix(40, 40, 8);
  const auto b = random_matrix(40, 40, 9);
  matrix::Matrix c(40, 40, 0.0);

  auto scheduler = sched::make_oddoml(plat, part);
  ExecutorOptions options;
  options.fault_hook = [](int worker, std::size_t step) {
    if (worker == 1 && step == 2)
      throw std::runtime_error("injected worker fault");
  };
  try {
    execute_online(scheduler, plat, part, a, b, c, options);
    FAIL() << "expected the injected worker fault to propagate";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("injected worker fault"),
              std::string::npos);
  }
  // The run failed cleanly: all threads joined, so a second run on the
  // same data works.
  auto retry = sched::make_oddoml(plat, part);
  const ExecutorReport report = execute_online(retry, plat, part, a, b, c);
  EXPECT_TRUE(report.verified);
}

TEST(OnlineRuntime, VerificationFailureThrowsAsDocumented) {
  const matrix::Partition part(24, 24, 24, 8);
  const auto plat = platform::Platform::homogeneous(2, 0.01, 0.002, 60);
  const auto a = random_matrix(24, 24, 10);
  const auto b = random_matrix(24, 24, 11);
  matrix::Matrix c(24, 24, 1.0);

  auto scheduler = sched::make_oddoml(plat, part);
  ExecutorOptions options;
  options.tolerance = -1.0;  // nothing can pass: |error| >= 0 > tolerance
  EXPECT_THROW(execute_online(scheduler, plat, part, a, b, c, options),
               std::runtime_error);
}

// ---- the same RunResult shape through core, on either backend --------------

TEST(OnlineRuntime, CoreRunsCellsOnEitherBackend) {
  const matrix::Partition part(40, 40, 56, 8);
  const auto plat = platform::Platform::homogeneous(3, 0.01, 0.002, 40);

  const core::RunReport simulated = core::run_algorithm("ORROML", plat, part);
  core::OnlineOptions online;
  online.data_seed = 7;
  const core::RunReport executed =
      core::run_algorithm_online("ORROML", plat, part, online);

  EXPECT_EQ(simulated.backend, core::Backend::kSim);
  EXPECT_EQ(executed.backend, core::Backend::kOnline);
  EXPECT_TRUE(executed.online_verified);
  EXPECT_GT(executed.online_wall_seconds, 0.0);
  // Deterministic policy: identical decisions, identical projection.
  EXPECT_DOUBLE_EQ(executed.result.makespan, simulated.result.makespan);
  EXPECT_EQ(executed.result.decisions, simulated.result.decisions);

  // The experiment grid accepts the backend switch.
  core::ExperimentOptions grid;
  grid.threads = 1;
  grid.backend = core::Backend::kOnline;
  grid.online.data_seed = 7;
  const auto results = core::run_experiment(
      {core::Instance{"cell", plat, part}}, {"ORROML", "ODDOML"}, grid);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_TRUE(results[0].cell_ok(0));
  EXPECT_TRUE(results[0].cell_ok(1));
  EXPECT_DOUBLE_EQ(results[0].reports[0].result.makespan,
                   simulated.result.makespan);
}

}  // namespace
}  // namespace hmxp::runtime

// ---- dynamic perturbation on the simulator backend -------------------------

namespace hmxp::sim {
namespace {

TEST(SimPerturbation, SlowdownScheduleStretchesMakespan) {
  // Compute-bound instance (w >> c), so a mid-run compute slowdown must
  // show up in the makespan, not hide in the port's shadow.
  const matrix::Partition part(96, 64, 160, 8);
  const auto plat = platform::Platform::homogeneous(2, 0.001, 0.02, 40);

  auto baseline_scheduler = sched::make_oddoml(plat, part);
  const RunResult baseline = simulate(baseline_scheduler, plat, part);

  platform::SlowdownSchedule schedule;
  schedule.add(/*worker=*/0, /*at=*/baseline.makespan * 0.25, /*factor=*/10.0);
  schedule.add(/*worker=*/1, /*at=*/baseline.makespan * 0.25, /*factor=*/10.0);
  auto perturbed_scheduler = sched::make_oddoml(plat, part);
  const RunResult perturbed =
      simulate(perturbed_scheduler, plat, part, schedule,
               /*record_trace=*/true);

  EXPECT_GT(perturbed.makespan, baseline.makespan);
  // The perturbed run is still a valid one-port schedule.
  EXPECT_TRUE(perturbed.trace.one_port_respected());
  EXPECT_TRUE(perturbed.trace.compute_serialized());
}

TEST(SimPerturbation, FactorLookupIsPiecewiseConstant) {
  platform::SlowdownSchedule schedule;
  schedule.add(0, 10.0, 4.0);
  schedule.add(0, 20.0, 0.5);
  schedule.add(1, 15.0, 2.0);
  EXPECT_DOUBLE_EQ(schedule.factor(0, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(schedule.factor(0, 10.0), 4.0);
  EXPECT_DOUBLE_EQ(schedule.factor(0, 19.9), 4.0);
  EXPECT_DOUBLE_EQ(schedule.factor(0, 25.0), 0.5);
  EXPECT_DOUBLE_EQ(schedule.factor(1, 14.0), 1.0);
  EXPECT_DOUBLE_EQ(schedule.factor(1, 16.0), 2.0);
  EXPECT_DOUBLE_EQ(schedule.factor(2, 100.0), 1.0);
  EXPECT_THROW(schedule.add(0, -1.0, 2.0), std::invalid_argument);
  EXPECT_THROW(schedule.add(0, 1.0, 0.0), std::invalid_argument);
  EXPECT_THROW(schedule.add(-1, 1.0, 2.0), std::invalid_argument);
}

}  // namespace
}  // namespace hmxp::sim
