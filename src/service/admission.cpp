#include "service/admission.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "core/algorithms.hpp"
#include "matrix/partition.hpp"
#include "model/steady_state.hpp"

namespace hmxp::service {

namespace {

AdmissionVerdict reject(std::string reason) {
  AdmissionVerdict verdict;
  verdict.admitted = false;
  verdict.reason = std::move(reason);
  return verdict;
}

}  // namespace

AdmissionVerdict price_job(const JobSpec& spec,
                           const platform::Platform& platform,
                           const std::vector<double>& drift,
                           const std::vector<char>& alive,
                           std::size_t max_payload_doubles) {
  if (spec.n_a == 0 || spec.n_ab == 0 || spec.n_b == 0 || spec.q == 0)
    return reject("job geometry must be positive in every dimension");
  if (!(spec.weight > 0.0) || !std::isfinite(spec.weight))
    return reject("job weight must be positive and finite");

  // Policy check: only FT-* schedulers survive starting with zero
  // workers and losing leased ones at rebalance points.
  try {
    const std::string canonical = core::algorithm_from_name(spec.algorithm);
    if (canonical.rfind("FT-", 0) != 0)
      return reject("algorithm \"" + canonical +
                    "\" is not fault-tolerant; service jobs require an "
                    "FT-* policy");
  } catch (const std::exception& error) {
    return reject(error.what());
  }

  // Geometry check: the fleet's arena slots and frame ceilings were
  // sized once at spawn; a larger payload cannot be shipped.
  const std::size_t payload =
      std::max({spec.n_a * spec.n_b, spec.n_a * spec.n_ab,
                spec.n_ab * spec.n_b});
  if (payload > max_payload_doubles)
    return reject("job payload (" + std::to_string(payload) +
                  " doubles) exceeds the fleet's sizing ceiling (" +
                  std::to_string(max_payload_doubles) + ")");

  // The leasable platform as declared: a dead worker can never be
  // leased, so it is priced out entirely.
  std::vector<model::SteadyWorker> declared = platform.steady_workers();
  const std::size_t p = declared.size();
  for (std::size_t i = 0; i < p; ++i)
    if (i < alive.size() && !alive[i]) declared[i].mu = 0;

  // Pricing: each w_i scaled by its observed drift -- a worker that
  // slowed 2x since calibration is priced at its real speed, not its
  // datasheet.
  std::vector<model::SteadyWorker> drifted = declared;
  for (std::size_t i = 0; i < p; ++i)
    if (i < drift.size() && std::isfinite(drift[i]) && drift[i] > 0.0)
      drifted[i].w *= drift[i];
  const model::SteadyStateSolution solution =
      model::solve_bandwidth_centric(drifted);
  if (solution.throughput <= 0.0)
    return reject("no leasable worker can sustain any throughput");

  // Table 2 memory feasibility: the buffers each enrolled worker needs
  // to HOLD its steady-state rate must fit its memory, or the schedule
  // stalls on operand starvation no matter what the scheduler does.
  // Checked on the declared speeds, not the drifted ones: memory does
  // not depend on speed, and one noisy drift sample -- a descheduled
  // thread worker timing a tiny step -- must not turn away a job that
  // fits.
  const model::SteadyStateSolution steady =
      model::solve_bandwidth_centric(declared);
  const std::vector<double> demand =
      model::steady_state_buffer_demand(declared);
  for (std::size_t i = 0; i < p; ++i) {
    if (steady.x[i] <= 1e-12) continue;
    const double memory =
        static_cast<double>(platform.worker(static_cast<int>(i)).m);
    if (demand[i] > memory)
      return reject("steady-state working set of worker " +
                    std::to_string(i) + " (" + std::to_string(demand[i]) +
                    " blocks) overcommits its memory (" +
                    std::to_string(platform.worker(static_cast<int>(i)).m) +
                    " blocks)");
  }

  AdmissionVerdict verdict;
  verdict.admitted = true;
  verdict.throughput = solution.throughput;
  return verdict;
}

std::vector<int> fair_targets(const std::vector<double>& weights,
                              int alive_workers) {
  const std::size_t jobs = weights.size();
  std::vector<int> targets(jobs, 0);
  if (jobs == 0 || alive_workers <= 0) return targets;

  // Guarantee 1: every job gets a worker while supply lasts, in
  // registration order -- the oldest waiting job is served first.
  const std::size_t floored =
      std::min(jobs, static_cast<std::size_t>(alive_workers));
  for (std::size_t j = 0; j < floored; ++j) targets[j] = 1;
  int surplus = alive_workers - static_cast<int>(floored);
  if (surplus <= 0 || floored < jobs) return targets;

  // Split the surplus proportionally to weight, largest remainder
  // breaking ties by index (deterministic for tests and replays).
  double total_weight = 0.0;
  for (const double weight : weights) total_weight += weight;
  std::vector<double> remainders(jobs, 0.0);
  int assigned = 0;
  for (std::size_t j = 0; j < jobs; ++j) {
    const double share =
        static_cast<double>(surplus) * weights[j] / total_weight;
    const int whole = static_cast<int>(std::floor(share));
    targets[j] += whole;
    remainders[j] = share - static_cast<double>(whole);
    assigned += whole;
  }
  std::vector<std::size_t> order(jobs);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (remainders[a] != remainders[b]) return remainders[a] > remainders[b];
    return a < b;
  });
  for (std::size_t k = 0; k < order.size() && assigned < surplus; ++k) {
    ++targets[order[k]];
    ++assigned;
  }
  return targets;
}

}  // namespace hmxp::service
