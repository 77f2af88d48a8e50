// Fault-tolerance stress suite: the unreliable-platform scenario on
// both execution backends.
//
//   * engine-level failure semantics: a failed worker's in-flight chunk
//     returns to the pending set, its projections go infeasible, and
//     the same blocks can be re-assigned to a survivor;
//   * orphan re-planning: a chunk sized for a big worker splits to fit
//     a small survivor's memory, covering exactly the same rectangle;
//   * the deterministic stress matrix: every FT-* scheduler x
//     {sim, online} backend x {0, 1, 2} injected failures completes
//     with every C block covered exactly once (updates == r*s*t,
//     finalize's coverage checks), and on the online backend the
//     recovered C equals the fault-free C BIT FOR BIT -- re-assignment
//     re-runs the identical ascending-k accumulation, so not even the
//     last ulp may differ;
//   * non-fault-tolerant policies abort cleanly on the same faults
//     instead of producing a wrong product;
//   * calibrated min-min beats its uncalibrated counterpart's makespan
//     under a 2x mid-run slowdown (the adaptive-scheduling payoff).
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "core/run.hpp"
#include "runtime/executor.hpp"
#include "sched/fault_tolerant.hpp"
#include "sched/min_min.hpp"
#include "sched/registry.hpp"
#include "sim/engine.hpp"
#include "testing_support.hpp"
#include "util/rng.hpp"

namespace hmxp {
namespace {

matrix::Partition stress_partition() {
  return matrix::Partition(40, 48, 64, 8);  // r=5, t=6, s=8
}
constexpr model::BlockCount kStressUpdates = 5 * 8 * 6;

platform::Platform stress_platform() {
  std::vector<platform::WorkerSpec> specs = {
      {0.010, 0.0020, 30, "w0"},
      {0.008, 0.0015, 60, "w1"},
      {0.012, 0.0010, 140, "w2"},
      {0.010, 0.0025, 40, "w3"},
  };
  return platform::Platform("unreliable", specs);
}

std::vector<std::string> ft_names() {
  std::vector<std::string> names;
  for (const std::string& name : sched::Registry::instance().names())
    if (name.rfind("FT-", 0) == 0) names.push_back(name);
  return names;
}

matrix::Matrix random_matrix(std::size_t rows, std::size_t cols,
                             std::uint64_t seed) {
  util::Rng rng(seed);
  return matrix::Matrix::random(rows, cols, rng);
}

// ---- engine-level failure semantics ----------------------------------------

TEST(EngineFaults, FailWorkerReturnsChunkToPendingSet) {
  const auto plat = stress_platform();
  const auto part = stress_partition();
  sim::Engine engine(plat, part);

  const auto plan = sim::make_double_buffered_chunk({0, 2, 0, 2}, part.t());
  engine.execute(sim::Decision::send_chunk(0, plan));
  engine.execute(sim::Decision::send_operands(0));
  const model::BlockCount total =
      static_cast<model::BlockCount>(part.c_blocks());
  EXPECT_EQ(engine.unassigned_blocks(), total - 4);
  EXPECT_GT(engine.updates_total(), 0);

  engine.fail_worker(0);
  EXPECT_FALSE(engine.alive(0));
  EXPECT_EQ(engine.alive_count(), plat.size() - 1);
  // Blocks back in the pending set, enabled updates rolled back.
  EXPECT_EQ(engine.unassigned_blocks(), total);
  EXPECT_EQ(engine.updates_total(), 0);
  EXPECT_EQ(engine.progress(0).chunks_lost, 1);
  // Every further communication with the dead worker is infeasible ...
  for (const auto kind : {sim::CommKind::kSendC, sim::CommKind::kSendAB,
                          sim::CommKind::kRecvC})
    EXPECT_TRUE(std::isinf(engine.earliest_start(0, kind)));
  EXPECT_THROW(engine.execute(sim::Decision::send_operands(0)),
               std::logic_error);
  // ... and a survivor may adopt the very same blocks.
  engine.execute(sim::Decision::send_chunk(2, plan));
  EXPECT_EQ(engine.unassigned_blocks(), total - 4);
  // fail_worker is idempotent.
  engine.fail_worker(0);
  EXPECT_EQ(engine.alive_count(), plat.size() - 1);
}

TEST(EngineFaults, SnapshotRestoreRewindsFailure) {
  const auto plat = stress_platform();
  const auto part = stress_partition();
  platform::FaultSchedule faults;
  faults.add(1, 0.0);  // applies at the first decision boundary
  sim::Engine engine(sim::InstanceContext::make(plat, part, {}, faults),
                     /*record_trace=*/false);

  const sim::EngineState before = engine.snapshot();
  const auto plan = sim::make_double_buffered_chunk({0, 1, 0, 1}, part.t());
  engine.execute(sim::Decision::send_chunk(0, plan));
  EXPECT_FALSE(engine.alive(1));  // the scheduled fault fired

  engine.restore(before);
  EXPECT_TRUE(engine.alive(1));  // rewound, will re-fire deterministically
  engine.execute(sim::Decision::send_chunk(0, plan));
  EXPECT_FALSE(engine.alive(1));
}

TEST(FaultTolerant, ChunkLostToAFailureTheWrapperNeverSawIsReissued) {
  // The online master can fail a worker and re-admit it (a reconnected
  // TCP worker) between two decisions, so the wrapper never sees it
  // dead. Its in-flight chunk is lost all the same -- chunks_lost says
  // so -- and must be re-issued, or the run stalls with work pending.
  const auto plat = stress_platform();
  const auto part = stress_partition();
  sim::Engine engine(plat, part);
  auto scheduler = sched::Registry::instance().make("FT-ODDOML", plat, part);
  while (!engine.progress(1).has_chunk) {
    const sim::Decision decision = scheduler->next(engine);
    ASSERT_EQ(decision.kind, sim::Decision::Kind::kComm);
    engine.execute(decision);
  }
  engine.fail_worker(1);
  engine.revive_worker(1);

  const sim::RunResult result = sim::run(*scheduler, engine);
  EXPECT_EQ(result.updates, kStressUpdates);
}

// ---- orphan re-planning -----------------------------------------------------

TEST(FaultTolerant, ReplanSplitsChunksToFitSmallerMemory) {
  const auto big = sim::make_double_buffered_chunk({0, 6, 0, 6}, 7);
  ASSERT_GT(big.peak_buffers(), 40);

  const auto pieces = sched::replan_for_memory(big, 40);
  ASSERT_GT(pieces.size(), 1u);
  std::size_t covered = 0;
  for (const sim::ChunkPlan& piece : pieces) {
    EXPECT_LE(piece.peak_buffers(), 40);
    EXPECT_EQ(piece.steps.size(), 7u);  // k-step structure preserved
    EXPECT_TRUE(big.rect.i0 <= piece.rect.i0 && piece.rect.i1 <= big.rect.i1);
    EXPECT_TRUE(big.rect.j0 <= piece.rect.j0 && piece.rect.j1 <= big.rect.j1);
    covered += piece.rect.count();
  }
  for (std::size_t a = 0; a < pieces.size(); ++a)
    for (std::size_t b = a + 1; b < pieces.size(); ++b)
      EXPECT_FALSE(pieces[a].rect.overlaps(pieces[b].rect));
  EXPECT_EQ(covered, big.rect.count());  // exact cover, no overlap

  // A plan that already fits passes through untouched.
  const auto pass = sched::replan_for_memory(big, 1000);
  ASSERT_EQ(pass.size(), 1u);
  EXPECT_EQ(pass[0].rect, big.rect);
}

// ---- stress matrix: simulator backend ---------------------------------------

class FtSimStress
    : public ::testing::TestWithParam<std::tuple<std::string, int>> {};

TEST_P(FtSimStress, RecoversWithFullCoverage) {
  const auto& [name, failures] = GetParam();
  const auto plat = stress_platform();
  const auto part = stress_partition();
  sched::Registry& registry = sched::Registry::instance();

  auto baseline = registry.make(name, plat, part);
  const sim::RunResult fault_free = sim::simulate(*baseline, plat, part);
  EXPECT_EQ(fault_free.workers_failed, 0);
  EXPECT_EQ(fault_free.updates, kStressUpdates);

  platform::FaultSchedule faults;
  if (failures >= 1) faults.add(1, fault_free.makespan * 0.30);
  if (failures >= 2) faults.add(2, fault_free.makespan * 0.55);

  auto scheduler = registry.make(name, plat, part);
  const sim::RunResult result = sim::simulate(
      *scheduler, sim::InstanceContext::make(plat, part, {}, faults));
  // finalize() inside simulate already proved exact coverage: every
  // block assigned, computed and returned exactly once.
  EXPECT_EQ(result.workers_failed, failures);
  EXPECT_EQ(result.updates, kStressUpdates);
  EXPECT_GE(result.makespan, fault_free.makespan - 1e-9);
  EXPECT_GT(result.makespan, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, FtSimStress,
    ::testing::Combine(::testing::ValuesIn(ft_names()),
                       ::testing::Values(0, 1, 2)),
    [](const auto& info) {
      return testing::param_safe(std::get<0>(info.param)) + "_kill" +
             std::to_string(std::get<1>(info.param));
    });

TEST(FtSimStress, NonFaultTolerantPolicyCannotRecover) {
  const auto plat = stress_platform();
  const auto part = stress_partition();
  sched::Registry& registry = sched::Registry::instance();

  auto baseline = registry.make("ODDOML", plat, part);
  const sim::RunResult fault_free = sim::simulate(*baseline, plat, part);

  platform::FaultSchedule faults;
  faults.add(1, fault_free.makespan * 0.30);
  auto scheduler = registry.make("ODDOML", plat, part);
  // The lost chunk has no way back into a plain policy's carve: the run
  // stalls with work remaining and the invariant check aborts it --
  // loudly, never as a silently wrong product.
  EXPECT_THROW(
      sim::simulate(*scheduler,
                    sim::InstanceContext::make(plat, part, {}, faults)),
      std::logic_error);
}

// ---- stress matrix: online backend ------------------------------------------

class FtOnlineStress
    : public ::testing::TestWithParam<std::tuple<std::string, int>> {};

TEST_P(FtOnlineStress, RecoveredCMatchesFaultFreeCBitForBit) {
  const auto& [name, failures] = GetParam();
  const auto plat = stress_platform();
  const auto part = stress_partition();
  sched::Registry& registry = sched::Registry::instance();

  const auto a = random_matrix(part.n_a(), part.n_ab(), 11);
  const auto b = random_matrix(part.n_ab(), part.n_b(), 12);
  const auto c0 = random_matrix(part.n_a(), part.n_b(), 13);

  // Fault-free reference product on the same data.
  matrix::Matrix c_reference = c0;
  {
    auto scheduler = registry.make(name, plat, part);
    const runtime::ExecutorReport report = runtime::execute_online(
        *scheduler, plat, part, a, b, c_reference, {});
    ASSERT_TRUE(report.verified);
    ASSERT_EQ(report.workers_failed, 0);
  }

  // The same run with {0, 1, 2} injected kills. Each kill fires at a
  // fixed point of a worker's OWN message stream (its 2nd operand
  // step), so the trigger is independent of thread interleaving; which
  // workers claim the kill slots may vary with scheduling, but every
  // slot is always claimed -- any scheduler hands at least `failures`+1
  // workers a chunk of >= 2 steps once re-assignment kicks in -- and
  // the invariants below hold for any victim set.
  matrix::Matrix c_faulty = c0;
  struct KillPlan {
    std::array<std::atomic<int>, 4> steps{};
    std::atomic<int> slots{0};
  };
  auto plan = std::make_shared<KillPlan>();
  plan->slots = failures;
  runtime::ExecutorOptions options;
  options.tolerate_faults = true;
  options.fault_hook = [plan](int worker, std::size_t) {
    const int seen =
        1 + plan->steps[static_cast<std::size_t>(worker)].fetch_add(1);
    if (seen == 2 && plan->slots.fetch_sub(1) > 0)
      throw std::runtime_error("injected kill: worker " +
                               std::to_string(worker));
  };
  auto scheduler = registry.make(name, plat, part);
  const runtime::ExecutorReport report = runtime::execute_online(
      *scheduler, plat, part, a, b, c_faulty, options);

  EXPECT_TRUE(report.verified);
  EXPECT_EQ(report.workers_failed, failures);
  EXPECT_EQ(report.result.workers_failed, failures);
  // No chunk lost or double-applied: the mirror's bookkeeping closed at
  // exactly r*s*t effective updates (real updates may exceed it by the
  // recomputed lost work) ...
  EXPECT_EQ(report.result.updates, kStressUpdates);
  EXPECT_GE(report.updates_performed,
            static_cast<std::size_t>(kStressUpdates));
  // ... and the recovered product matches the fault-free one. Under
  // the paper's layout (one k per step) re-assignment repeats the same
  // per-element accumulation bit for bit, whoever adopts the blocks.
  // Toledo's k-grouping is OWNER-dependent (beta_i steps), and the
  // kernel folds each step's panel sum into C as one rounded add, so a
  // re-owned block may reassociate the k sum: FT-BMM is held to a
  // few-ulp bound instead of bitwise equality.
  const double tolerance = name == "FT-BMM" ? 1e-12 : 0.0;
  EXPECT_LE(matrix::Matrix::max_abs_diff(c_faulty, c_reference), tolerance);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, FtOnlineStress,
    ::testing::Combine(::testing::ValuesIn(ft_names()),
                       ::testing::Values(0, 1, 2)),
    [](const auto& info) {
      return testing::param_safe(std::get<0>(info.param)) + "_kill" +
             std::to_string(std::get<1>(info.param));
    });

// ---- the calibration payoff -------------------------------------------------

TEST(Calibration, CalibratedMinMinBeatsStaticUnderMidRunSlowdown) {
  // Compute-bound instance: four equal workers, then one of them slows
  // 2x a quarter into the run. Static min-min keeps trusting the stale
  // w_i and overloads the slowed worker; the calibrated variant watches
  // the observed per-step costs drift and shifts work to the others.
  const auto plat = platform::Platform::homogeneous(4, 0.001, 0.02, 40);
  const auto part = matrix::Partition(80, 64, 96, 8);  // r=10, t=8, s=12

  auto probe = sched::make_ommoml(plat, part);
  const sim::RunResult fault_free = sim::simulate(probe, plat, part);

  platform::SlowdownSchedule drift;
  drift.add(/*worker=*/0, fault_free.makespan * 0.25, /*factor=*/2.0);

  auto uncalibrated = sched::make_ommoml(plat, part);
  const sim::RunResult stale =
      sim::simulate(uncalibrated, plat, part, drift);
  auto calibrated = sched::make_ommoml_calibrated(plat, part);
  const sim::RunResult adaptive =
      sim::simulate(calibrated, plat, part, drift);

  EXPECT_EQ(stale.updates, adaptive.updates);
  EXPECT_LT(adaptive.makespan, stale.makespan);
}

// ---- the unreliable scenario through the core facade ------------------------

TEST(CoreFaults, ExperimentCellRunsUnreliableScenarioOnEitherBackend) {
  const auto plat = stress_platform();
  const auto part = stress_partition();

  auto probe = sched::Registry::instance().make("FT-ODDOML", plat, part);
  const sim::RunResult fault_free = sim::simulate(*probe, plat, part);

  core::SimOptions sim_options;
  sim_options.faults.add(1, fault_free.makespan * 0.4);
  const core::RunReport simulated =
      core::run_algorithm("FT-ODDOML", plat, part, sim_options);
  EXPECT_EQ(simulated.result.workers_failed, 1);
  EXPECT_EQ(simulated.result.updates, kStressUpdates);

  core::OnlineOptions online_options;
  online_options.tolerate_faults = true;
  online_options.faults.add(1, 0.0);  // dies on its first message
  const core::RunReport executed = core::run_algorithm_online(
      "FT-ODDOML", plat, part, online_options);
  EXPECT_TRUE(executed.online_verified);
  EXPECT_EQ(executed.result.workers_failed, 1);
  EXPECT_EQ(executed.result.updates, kStressUpdates);
}

}  // namespace
}  // namespace hmxp
