// Online adaptive execution: demand-driven scheduling LIVE on the
// threaded runtime, on a platform whose speeds change mid-run.
//
//   1. describe a heterogeneous star platform and partition the
//      matrices into q x q blocks;
//   2. predict with the simulator: the same ODDOML policy on the pure
//      cost model (which knows nothing about the perturbation);
//   3. execute ONLINE: the scheduler runs inside the master loop,
//      reacting to actual completion messages, while a wall-clock
//      SlowdownSchedule decelerates workers under it mid-run (the
//      paper's deceleration trick, made time-varying);
//   4. verify C against a reference product and print the RunResult --
//      the exact shape the simulator emits -- next to the prediction.
//
// Run:  ./online_adaptive [--backend=thread|process|shm|tcp]
//                         [--speculate] [--drift-threshold=2.0]
//                         [--kernel=...]
//
// --speculate wraps the live policy in the straggler-speculation layer
// (SP-ODDOML): once a worker's observed drift crosses
// --drift-threshold, its in-flight chunk is duplicated onto the best
// idle survivor, the first completion commits, and the loser is
// cancelled without killing the worker. The run then prints the
// speculation telemetry (duplicates issued / won / cancelled, wasted
// updates, raced results discarded).
//
// --backend picks the data-plane transport for step 3: worker threads
// (default), one forked worker process per worker with serialized
// frames over socketpairs -- the in-machine analogue of the companion
// report's MPI deployment -- forked workers over the zero-copy
// shared-memory arena (process isolation without the serialization
// tax), or forked workers dialing the master over loopback TCP (the
// versioned-handshake, reconnect-capable cluster rehearsal). The
// scheduler, the perturbation, and the verified C are identical on all
// four. The per-worker update counts are not: the master feeds
// whichever worker can take work now, so the counts follow how fast
// each worker really runs on that backend, from run to run.
//
// --kernel pins the GEMM dispatch (naive|tiled|simd|portable|avx2|
// avx512). On the forked backends the hello handshake proves every
// worker runs the master's kernel configuration.
#include <iostream>
#include <memory>

#include "matrix/gemm.hpp"
#include "matrix/matrix.hpp"
#include "platform/perturbation.hpp"
#include "runtime/executor.hpp"
#include "runtime/transport.hpp"
#include "sched/demand_driven.hpp"
#include "sched/speculative.hpp"
#include "sim/scheduler.hpp"
#include "util/flags.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/strings.hpp"

int main(int argc, char** argv) {
  using namespace hmxp;

  util::Flags flags;
  flags.define("backend", "thread",
               "data-plane transport for the live run: thread | process | "
               "shm | tcp");
  flags.define_bool("speculate", false,
                    "duplicate stragglers' chunks onto idle workers "
                    "(SP-ODDOML, cancel-on-first-completion)");
  flags.define("drift-threshold", "2.0",
               "observed-drift ratio that marks a worker a straggler");
  flags.define("kernel", "",
               "pin the GEMM dispatch: naive|tiled|simd|portable|avx2|"
               "avx512 (empty: auto)");
  flags.parse_or_exit(argc, argv);
  if (flags.help_requested()) {
    std::cout << flags.usage(
        "Online adaptive execution on a drifting platform.");
    return 0;
  }
  const auto transport =
      runtime::parse_transport_kind(flags.get_string("backend"));
  if (!transport.has_value()) {
    std::cerr << "unknown --backend (want thread, process, shm or tcp)\n";
    return 1;
  }
  const std::string kernel = flags.get_string("kernel");
  if (!kernel.empty()) matrix::apply_kernel_pin(kernel);  // throws on typo

  // A 4-worker star platform. Units: seconds per block transferred (c),
  // seconds per block update (w), memory in blocks (m).
  std::vector<platform::WorkerSpec> workers = {
      {0.002, 0.004, 60, "fast-link"},
      {0.004, 0.002, 140, "balanced"},
      {0.010, 0.001, 320, "big-memory"},
      {0.004, 0.003, 90, "spare"},
  };
  const platform::Platform plat("online-adaptive", workers);
  std::cout << plat.to_string() << '\n';

  // C (640x960) += A (640x800) * B (800x960), in 16x16 element blocks.
  const matrix::Partition part(640, 800, 960, 16);
  std::cout << "Partition: " << part.to_string() << "  ("
            << part.total_updates() << " block updates)\n\n";

  util::Rng rng(42);
  const auto a = matrix::Matrix::random(640, 800, rng);
  const auto b = matrix::Matrix::random(800, 960, rng);
  matrix::Matrix c = matrix::Matrix::random(640, 960, rng);

  // What the model expects of this platform (no perturbation knowledge).
  auto predicted_scheduler = sched::make_oddoml(plat, part);
  const sim::RunResult predicted = sim::simulate(predicted_scheduler, plat,
                                                 part);

  // The platform drifts mid-run: the big-memory node collapses to 1/8
  // speed 30 wall-milliseconds in, the fast-link node slows 3x a little
  // later, and the big node later recovers. The online scheduler never
  // sees this schedule -- only its effects, through which workers
  // actually hand results back.
  runtime::ExecutorOptions options;
  options.transport = *transport;
  options.perturbation.add(/*worker=*/2, /*at=*/0.030, /*factor=*/8.0);
  options.perturbation.add(/*worker=*/0, /*at=*/0.060, /*factor=*/3.0);
  options.perturbation.add(/*worker=*/2, /*at=*/0.200, /*factor=*/1.0);
  options.verify = true;  // prove the adaptive schedule still computes C

  const bool speculate = flags.get_bool("speculate");
  std::unique_ptr<sim::Scheduler> live_scheduler =
      std::make_unique<sched::DemandDrivenScheduler>(
          sched::make_oddoml(plat, part));
  if (speculate)
    live_scheduler = sched::make_speculative(
        "SP-ODDOML", std::move(live_scheduler),
        sched::SpeculationOptions{flags.get_double("drift-threshold")});
  const runtime::ExecutorReport executed = runtime::execute_online(
      *live_scheduler, plat, part, a, b, c, options);

  const auto show = [&](const char* title, const sim::RunResult& result) {
    std::cout << title << " [" << result.scheduler_name << "]"
              << "\n  model makespan      "
              << util::format_duration(result.makespan)
              << "\n  decisions           " << result.decisions
              << "\n  workers enrolled    " << result.workers_enrolled
              << " of " << plat.size() << "\n  blocks through port "
              << result.comm_blocks << " (CCR "
              << util::format_fixed(result.ccr(), 4) << ")\n";
  };
  show("Simulator prediction", predicted);
  show("Online execution    ", executed.result);

  std::cout << "\nOnline run [" << executed.transport << " transport]: "
            << executed.chunks_processed << " chunks, "
            << executed.updates_performed << " block updates in "
            << util::format_fixed(executed.wall_seconds, 3)
            << " s wall; per-worker updates:";
  for (std::size_t i = 0; i < executed.updates_per_worker.size(); ++i)
    std::cout << "  " << plat.worker(static_cast<int>(i)).label << "="
              << executed.updates_per_worker[i];
  if (speculate) {
    const runtime::SpeculationStats& sp = executed.speculation;
    std::cout << "\nspeculation: " << sp.duplicates_issued
              << " duplicates issued, " << sp.duplicates_won << " won, "
              << sp.duplicates_cancelled << " cancelled; "
              << sp.wasted_updates << " updates wasted, "
              << sp.stale_results << " raced results discarded";
  }
  std::cout << "\nkernel: " << executed.kernel_variant << " blocking "
            << matrix::blocking_to_string(executed.kernel_blocking)
            << "\nmax |error| = " << executed.max_abs_error
            << (executed.verified ? "  [verified]" : "") << '\n';
  return 0;
}
