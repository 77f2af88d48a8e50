// Physical-to-model calibration.
//
// Converts hardware descriptions (network Mbps, sustained GFlop/s, RAM)
// into the (c, w, m) block units of the model, for block size q and
// 8-byte doubles. The defaults approximate the paper's Lyon cluster:
// q = 80, switched Fast Ethernet, ~2.4 GFlop/s P4-class nodes, 80% of
// RAM usable for block buffers.
//
// NOTE on the paper's network: section 6.1 says "switched 10 Mbps Fast
// Ethernet". Fast Ethernet is 100 Mbps, and the makespans the paper
// reports (~2000 s for the F4-class instances, ~7800 s for the 20-worker
// run) are only consistent with ~100 Mbps links: at 10 Mbps the operand
// traffic alone would exceed them several-fold. We therefore calibrate
// the base link at 100 Mbps and treat the heterogeneous-link experiment's
// {10, 5, 1} Mbps as the 10:5:1 *ratios* it establishes, i.e.
// {100, 50, 10} Mbps. EXPERIMENTS.md discusses the discrepancy.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "platform/platform.hpp"

namespace hmxp::platform {

struct PhysicalSpec {
  double mbps = 100.0;           // link bandwidth, megabits per second
  double gflops = 2.4;           // sustained dgemm rate
  double ram_mib = 1024.0;       // memory in MiB
  double usable_fraction = 0.8;  // fraction of RAM available for buffers
  std::string label;
};

struct CalibrationConstants {
  std::size_t q = 80;            // block side, elements
  std::size_t element_bytes = 8; // double precision
};

/// Bytes of one q x q block.
std::size_t block_bytes(const CalibrationConstants& constants);

/// Seconds of port time to move one block over an `mbps` link.
model::Time block_comm_seconds(double mbps,
                               const CalibrationConstants& constants);

/// Seconds to apply one block update (2 q^3 flops) at `gflops`.
model::Time block_update_seconds(double gflops,
                                 const CalibrationConstants& constants);

/// Block buffers available in `ram_mib` MiB at the given usable fraction.
model::BlockCount memory_blocks(double ram_mib, double usable_fraction,
                                const CalibrationConstants& constants);

/// Full conversion.
WorkerSpec calibrate(const PhysicalSpec& spec,
                     const CalibrationConstants& constants = {});

// ---- online calibration -----------------------------------------------------

/// EWMA tracker of one worker's observed per-update cost, the online
/// counterpart of the physical calibration above: instead of deriving
/// w_i from a datasheet it is re-estimated from what the worker actually
/// did. Both execution backends fold their observations through this
/// type -- the simulator in model seconds (the engine observes every
/// projected step, so the estimate tracks the SlowdownSchedule's ground
/// truth), the threaded runtime in wall seconds per update (each
/// worker's measured step latencies). The first observation doubles as
/// the baseline, so drift() is a clock-unit-free ratio ("this worker now
/// runs 2.1x slower than when the run started") comparable across
/// backends.
struct SpeedEstimate {
  /// Leading observations discarded outright: a worker's first real
  /// step pays page faults and cold caches and can read 10-30x slow,
  /// which would poison a first-observation baseline for the whole run.
  static constexpr std::size_t kWarmup = 1;
  /// Post-warmup observations averaged into the baseline.
  static constexpr std::size_t kBaselineWindow = 4;

  double ewma = 0.0;          // smoothed per-update cost, backend clock
  double baseline = 0.0;      // mean of the first post-warmup window
  double baseline_sum = 0.0;
  std::size_t baseline_count = 0;
  std::size_t observations = 0;  // total, warm-up included

  /// Folds one observed per-update cost in. `alpha` in (0, 1]: weight of
  /// the new observation (1.0 = always trust the latest step).
  void observe(double per_update_cost, double alpha);

  bool calibrated() const { return observations > kWarmup; }
  /// The smoothed estimate, or `fallback` until warmed up.
  double value_or(double fallback) const {
    return calibrated() ? ewma : fallback;
  }
  /// Current-vs-initial speed ratio (> 1 = the worker slowed down);
  /// exactly 1.0 until warmed up.
  double drift() const;

  bool operator==(const SpeedEstimate&) const = default;
};

/// Knobs for the EWMA calibration loop, shared by both backends.
struct CalibrationOptions {
  /// Weight of the newest observation. The default reaches ~95% of a
  /// stepped speed change within 10 observations while smoothing
  /// single-step jitter.
  double alpha = 0.25;
};

// ---- calibration persistence ------------------------------------------------
//
// A long-lived service loses everything it learned about its workers on
// restart; these helpers give SpeedEstimate a host-keyed cache file.
// Its discipline: strict whole-file parse (any anomaly reads as "no
// cache"), atomic tmp+rename writes, never a crash. Entries are keyed
// by CPU model + a caller-supplied fleet label + worker count, so a
// fleet only reheats ITS OWN calibration on matching silicon.

/// Resolved cache file path: programmatic override (set below), then
/// the HMXP_CALIB_CACHE environment variable, then
/// $XDG_CACHE_HOME/hmxp/calibration (falling back to
/// $HOME/.cache/hmxp/calibration). The value "off" (override or env)
/// and an unresolvable location (no HOME) both yield "" = persistence
/// disabled.
std::string calibration_cache_path();

/// Overrides the cache location for this process ("off" disables,
/// nullopt restores the default chain). Tests use this for isolation.
void set_calibration_cache_override(std::optional<std::string> path_or_off);

/// Cache key for one fleet: sanitized CPU model + fleet label + worker
/// count. The count is part of the key -- a resized fleet cold-starts
/// rather than misassign estimates to the wrong workers.
std::string calibration_cache_key(const std::string& fleet_label,
                                  std::size_t workers);

/// Loads the estimates stored under `key`, or nullopt if the file is
/// missing, malformed, holds no such key, or the stored worker count
/// differs from `workers`. Never throws.
std::optional<std::vector<SpeedEstimate>> load_calibration(
    const std::string& path, const std::string& key, std::size_t workers);

/// Stores `speeds` under `key`, preserving other keys' entries.
/// Atomic (tmp + rename); false on any failure. Never throws.
bool store_calibration(const std::string& path, const std::string& key,
                       const std::vector<SpeedEstimate>& speeds);

}  // namespace hmxp::platform
