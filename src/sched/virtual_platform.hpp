// Virtual-platform extraction for Hom and HomI (section 6.2).
//
// Hom: for every distinct memory size M in the platform, consider the
// virtual homogeneous platform of all workers with m_i >= M, with
// apparent speed the slowest speed and apparent bandwidth the slowest
// bandwidth among them; estimate the homogeneous algorithm's makespan on
// it; keep the best.
//
// HomI: the same, but the candidate set ranges over every combination of
// (memory size, bandwidth, speed) present in the platform; a worker is
// eligible if it is at least as good on all three axes, and the virtual
// parameters are the threshold values themselves -- a much finer
// selection (the paper's fig. 5 shows the difference).
//
// Makespans are estimated by running the simulator on the virtual
// platform, which is exact under the model (the paper computes the same
// quantity analytically); each distinct schedule is simulated once per
// selection. A triple with `count` eligible workers and chunk side mu
// runs the schedule fixed by (P_eff, mu_eff, c, w), where
// mu_eff = min(mu, max(r, s)), P = enrollment(count) and
// P_eff = min(P, ceil(s / min(mu, s))). The key is exact: chunks are
// clipped to the matrix, so every side of at least max(r, s) carves the
// same chunks; the first round-robin cycle hands the
// ceil(s / min(mu, s)) column groups to the first enrolled workers, so
// any worker past them never acts in a fault-free run; and m reaches
// the schedule only through mu and P, since a mu-wide chunk always fits
// in memory m.
//
// The paper does not specify which eligible workers execute when more
// are eligible than the P the homogeneous selection enrolls; we take
// them in platform index order, matching MPI-rank-order enrollment.
#pragma once

#include <string>
#include <vector>

#include "sched/homogeneous.hpp"

namespace hmxp::sched {

struct VirtualSelection {
  HomogeneousParams params;
  std::vector<int> candidates;      // eligible workers, platform order
  model::Time predicted_makespan = 0.0;
  std::string description;          // e.g. "m>=6710,c<=0.0041,w<=0.00041"
};

/// Best Hom virtual platform (memory-threshold candidates only).
VirtualSelection select_hom(const platform::Platform& platform,
                            const matrix::Partition& partition);

/// Best HomI virtual platform (full (m, c, w) threshold grid).
VirtualSelection select_homi(const platform::Platform& platform,
                             const matrix::Partition& partition);

/// Ready-to-run schedulers (selection embedded).
RoundRobinScheduler make_hom(const platform::Platform& platform,
                             const matrix::Partition& partition);
RoundRobinScheduler make_homi(const platform::Platform& platform,
                              const matrix::Partition& partition);

}  // namespace hmxp::sched
