// One-call execution of an algorithm on a platform instance, with the
// derived metrics the paper reports. Every (instance x algorithm) cell
// can run on any execution backend:
//   * Backend::kSim     -- the discrete-event simulator (default);
//   * Backend::kOnline  -- the online runtime over the THREAD transport:
//     the scheduler runs live against worker threads computing a real
//     product on generated matrices, and the report carries the
//     model-projected RunResult its mirror emits (same shape as the
//     simulator) plus wall-clock and verification facts;
//   * Backend::kProcess -- the same online runtime over the FORKED
//     transport: one forked worker process per worker, messages
//     serialized over a socketpair each -- the in-machine reproduction
//     of the companion report's real-cluster (MPI) deployment;
//   * Backend::kShm    -- the same forked isolation, but payloads live
//     in a pre-fork shared-memory arena and the frames, on shared
//     rings, only name their slots: zero-copy process isolation;
//   * Backend::kTcp    -- the forked transport with dialed sockets:
//     forked workers DIAL the master's loopback listen socket and
//     reconnect after a dropped connection -- the in-machine rehearsal
//     of a real cluster deployment, including the fault-tolerant
//     re-admission path.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "core/algorithms.hpp"
#include "matrix/matrix.hpp"
#include "platform/perturbation.hpp"
#include "sched/speculative.hpp"
#include "sim/scheduler.hpp"

namespace hmxp::core {

enum class Backend { kSim, kOnline, kProcess, kShm, kTcp };

/// Canonical name ("sim" / "online" / "process" / "shm" / "tcp").
const char* backend_name(Backend backend);
/// Parses a backend name (case-insensitive; "thread" is accepted as an
/// alias of "online"); nullopt if unrecognized.
std::optional<Backend> parse_backend(const std::string& name);

/// Knobs for online cells (Backend::kOnline, kProcess, kShm and kTcp).
struct OnlineOptions {
  /// Which online backend executes the cell: kOnline (worker threads,
  /// the default), kProcess (forked worker processes), kShm (forked
  /// workers over the zero-copy shared-memory arena) or kTcp (forked
  /// workers dialing the master over loopback TCP). kSim is not a
  /// valid value here -- simulation takes SimOptions instead. The
  /// experiment grid overrides this with ExperimentOptions::backend, so
  /// a grid switches transports with one knob.
  Backend backend = Backend::kOnline;
  /// Seed for the deterministically generated A, B, C matrices.
  std::uint64_t data_seed = 42;
  /// Verify C against a reference product (throws on mismatch).
  bool verify = true;
  /// Dynamic per-worker compute/bandwidth drift, keyed on wall seconds
  /// since run start.
  platform::SlowdownSchedule perturbation;
  /// Permanent worker kills, keyed on wall seconds since run start.
  platform::FaultSchedule faults;
  /// Recover from worker loss instead of aborting (pair with an FT-*
  /// algorithm; a non-fault-tolerant policy cannot finish after one).
  bool tolerate_faults = false;
  /// EWMA knobs for the observed-speed feedback loop.
  platform::CalibrationOptions calibration;
  /// Port emulation: master-side wall seconds per block moved, scaled
  /// by the perturbation's bandwidth factor (0 = no throttled channel).
  double throttle_block_seconds = 0.0;
  /// Straggler-speculation knobs, applied process-wide before the
  /// scheduler is built (consumed by SP-* algorithms; others ignore it).
  sched::SpeculationOptions speculation;
};

/// Knobs for Backend::kSim cells: the same unreliable-platform scenario
/// on the model clock (the engine applies both schedules at decision
/// boundaries and feeds the calibration from projected step costs).
struct SimOptions {
  platform::SlowdownSchedule slowdown;
  platform::FaultSchedule faults;
  platform::CalibrationOptions calibration;
  /// Straggler-speculation knobs (consumed by SP-* algorithms).
  sched::SpeculationOptions speculation;
};

struct RunReport {
  Algorithm algorithm;         // canonical registry name
  std::string algorithm_label; // same spelling, for table columns
  Backend backend = Backend::kSim;
  sim::RunResult result;

  /// Steady-state upper bound on throughput (Table 1 LP) and the ratio
  /// bound/achieved the paper quotes (2.29x mean for Het).
  double steady_state_bound = 0.0;   // block updates per second
  double bound_over_achieved = 0.0;

  /// Wall-clock seconds spent in the algorithm's decision phase
  /// (virtual-platform search, Het's 8-variant simulation); the paper
  /// includes this "decision process" in its measurements, we report it
  /// separately since simulated and wall time differ by design.
  double selection_wall_seconds = 0.0;

  /// Winning Het variant (set only for algorithms with a selection
  /// phase, i.e. Het).
  std::optional<sched::HetVariant> het_variant;

  /// Online-backend facts (every backend but Backend::kSim).
  double online_wall_seconds = 0.0;
  bool online_verified = false;
};

/// Simulates `algorithm` on the instance. `record_trace` keeps the full
/// event trace in the report (memory-heavy for big instances).
RunReport run_algorithm(const Algorithm& algorithm,
                        const platform::Platform& platform,
                        const matrix::Partition& partition,
                        bool record_trace = false);

/// Same, over a perturbed/unreliable instance (slowdown + fault
/// schedules on the model clock, calibration knobs).
RunReport run_algorithm(const Algorithm& algorithm,
                        const platform::Platform& platform,
                        const matrix::Partition& partition,
                        const SimOptions& options, bool record_trace = false);

/// The deterministically generated operands of an online run: A, B and
/// the initial C, shaped to `partition` and fully determined by `seed`.
/// Factored out so OTHER producers of the same job -- the multi-job
/// service, tests comparing a service job against a standalone run --
/// generate bit-identical inputs from a (partition, seed) pair.
struct OperandSet {
  matrix::Matrix a;
  matrix::Matrix b;
  matrix::Matrix c;
};
OperandSet generate_operands(const matrix::Partition& partition,
                             std::uint64_t seed);

/// Runs `algorithm` live on the online runtime: random matrices are
/// generated to the partition's shape, the scheduler drives real
/// workers -- threads or forked processes, per options.backend -- and C
/// is verified unless options say otherwise.
RunReport run_algorithm_online(const Algorithm& algorithm,
                               const platform::Platform& platform,
                               const matrix::Partition& partition,
                               const OnlineOptions& options = {},
                               bool record_trace = false);

}  // namespace hmxp::core
