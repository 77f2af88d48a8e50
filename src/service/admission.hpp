// Admission control and fair sharing for the multi-job service.
//
// Admission prices a submitted job against the paper's own steady-state
// machinery BEFORE it queues: the Table 1 bandwidth-centric optimum
// (model/steady_state.hpp) over the fleet's platform -- with each w_i
// scaled by the worker's observed calibration drift -- yields the
// honest throughput the fleet can sustain, and the Table 2 buffer
// demand of the declared (drift-free) steady state says how many block
// buffers each enrolled worker needs -- memory does not depend on
// speed, so a noisy drift sample never decides feasibility. A job whose
// steady-state working set overcommits a worker's memory, whose
// payloads exceed the fleet's sizing ceiling, or whose policy cannot
// survive lease churn is rejected with a reason instead of wedging the
// queue.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "platform/platform.hpp"
#include "service/job.hpp"

namespace hmxp::service {

struct AdmissionVerdict {
  bool admitted = false;
  std::string reason;  // set when rejected
  /// Steady-state block updates per second the fleet sustains for this
  /// job (Table 1 optimum under current calibration drift).
  double throughput = 0.0;
};

/// Prices `spec` against the fleet's platform. `drift` is the
/// per-worker observed slowdown ratio (1.0 = nominal; from
/// Fleet::drift), `alive` flags which workers can still be leased, and
/// `max_payload_doubles` is the fleet's frame/arena sizing ceiling.
/// Pure function of its inputs; never throws.
AdmissionVerdict price_job(const JobSpec& spec,
                           const platform::Platform& platform,
                           const std::vector<double>& drift,
                           const std::vector<char>& alive,
                           std::size_t max_payload_doubles);

/// Weighted fair-share worker targets for the running jobs: `weights`
/// in registration order, `alive_workers` leasable workers. Every job
/// targets at least 1 worker while supply lasts (jobs beyond the supply
/// target 0 and wait); the surplus is split proportionally to weight by
/// largest remainder, deterministically. Sum of targets ==
/// min(alive_workers, ...) never exceeds alive_workers.
std::vector<int> fair_targets(const std::vector<double>& weights,
                              int alive_workers);

}  // namespace hmxp::service
