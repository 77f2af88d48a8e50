// Cache blocking of the packed GEMM path.
//
// The packed tier blocks A into MC x KC panels (sized for L2), B into
// KC x NC panels (sized for L3, streamed through L1 in KC x NR
// slivers). Every build on every host runs one blocking, the constant
// kDefaultBlocking; a programmatic force_blocking() pin is the only
// way to run another (tests pin small ones to reach the ragged-panel
// paths).
//
// One constant rather than a per-host search: on a 4-vCPU AVX-512
// host (48 KiB L1d, 2 MiB L2), five fresh searches picked four
// different winners, and in 10 alternating bench_kernels pairs the
// analytic BLIS blocking those caches suggest (680x192x4096) beat this
// constant in only 5, 3 and 3 pairs on BM_StepUpdate/lent:0,
// BM_StepUpdate/lent:1 and BM_GemmSimd/1024. Low et al., "Analytical
// Modeling Is Enough for High-Performance BLIS" (ACM TOMS 2016),
// likewise fixes the blocking up front.
//
// This is the per-worker speed the paper takes as a measured given:
// each worker's w_i is what this one kernel delivers on its host.
#pragma once

#include <cstddef>
#include <optional>
#include <string>

#include "matrix/kernel_dispatch.hpp"

namespace hmxp::matrix {

/// Cache-blocking extents of the packed path: A panels are MC x KC,
/// B panels KC x NC.
struct BlockingParams {
  std::size_t mc = 0;
  std::size_t kc = 0;
  std::size_t nc = 0;
  friend bool operator==(const BlockingParams&,
                         const BlockingParams&) = default;
};

/// The blocking of every packed GEMM (valid for every micro-kernel:
/// 120 is a multiple of 4, 6 and 8; 512 of 8).
inline constexpr BlockingParams kDefaultBlocking{120, 256, 512};

/// "MCxKCxNC", e.g. "120x256x512".
std::string blocking_to_string(const BlockingParams& params);

/// Throws std::invalid_argument unless `params` is a sane blocking for
/// a micro-kernel with the given register tile: all extents nonzero,
/// MC a multiple of MR (<= 4096), NC a multiple of NR (<= 16384),
/// KC in [4, 8192], and the packed-panel footprint below 256 MiB --
/// a deliberately absurd pin must never install.
void validate_blocking(const BlockingParams& params, std::size_t mr,
                       std::size_t nr);

/// The blocking the packed path uses right now: the forced pin, or
/// else kDefaultBlocking.
BlockingParams active_blocking();

/// Pins (or unpins) the blocking, validated against the ACTIVE
/// variant's register tile. Not thread-safe against concurrent GEMM
/// calls.
void force_blocking(std::optional<BlockingParams> params);
std::optional<BlockingParams> forced_blocking();

/// The blocking and where it came from, for the wall-clock suite's
/// result records only: `source` is "forced" or "default".
struct TuneOutcome {
  BlockingParams params;
  const char* source = "";
};

/// {active_blocking(), "forced" or "default"}; `variant` is ignored.
/// Only bench/suite calls this.
TuneOutcome resolve_blocking(MicroKernelVariant variant);

/// Always "": no blocking is persisted. Only bench/suite calls this.
std::string tuning_cache_path();

/// The full kernel configuration of this process: dispatch pins, the
/// resolved tier/variant, and the blocking. The process and shm
/// transports capture it in the master before forking, re-assert it in
/// every child (install_kernel_config), and verify it in the bootstrap
/// hello handshake -- a forked worker provably runs the master's
/// configuration.
struct KernelConfig {
  std::optional<KernelTier> forced_tier;
  KernelTier active_tier = KernelTier::kPacked;
  std::optional<MicroKernelVariant> forced_variant;
  MicroKernelVariant active_variant = MicroKernelVariant::kPortable;
  BlockingParams blocking = kDefaultBlocking;
};

/// Captures the current configuration. Tiers other than the packed
/// one consume no blocking and report kDefaultBlocking.
KernelConfig current_kernel_config();

/// Re-asserts `config` in this process: pins tier, variant and
/// blocking, and exports HMXP_FORCE_KERNEL for exec'd descendants.
void install_kernel_config(const KernelConfig& config);

}  // namespace hmxp::matrix
