#include "matrix/tuning.hpp"

#include <atomic>
#include <cstdlib>
#include <string>

#include "util/check.hpp"

namespace hmxp::matrix {

namespace {

constexpr std::size_t kMaxMcBound = 4096;
constexpr std::size_t kMaxNcBound = 16384;
constexpr std::size_t kMinKc = 4;
constexpr std::size_t kMaxKc = 8192;
constexpr std::size_t kMaxPackedBytes = 256 * 1024 * 1024;

// params written before ready.store(release); readers load(acquire)
// first. Re-pinning while GEMM runs concurrently is documented unsafe
// (same contract as force_kernel_tier).
std::atomic<bool> forced_ready{false};
BlockingParams forced_params;

}  // namespace

std::string blocking_to_string(const BlockingParams& params) {
  return std::to_string(params.mc) + 'x' + std::to_string(params.kc) + 'x' +
         std::to_string(params.nc);
}

void validate_blocking(const BlockingParams& params, std::size_t mr,
                       std::size_t nr) {
  HMXP_REQUIRE(mr > 0 && nr > 0, "register tile must be nonzero");
  HMXP_REQUIRE(params.mc > 0 && params.kc > 0 && params.nc > 0,
               "blocking extents must be nonzero, got " +
                   blocking_to_string(params));
  HMXP_REQUIRE(params.mc % mr == 0,
               "MC=" + std::to_string(params.mc) +
                   " must be a multiple of the micro-kernel MR=" +
                   std::to_string(mr));
  HMXP_REQUIRE(params.nc % nr == 0,
               "NC=" + std::to_string(params.nc) +
                   " must be a multiple of the micro-kernel NR=" +
                   std::to_string(nr));
  HMXP_REQUIRE(params.mc <= kMaxMcBound && params.nc <= kMaxNcBound &&
                   params.kc >= kMinKc && params.kc <= kMaxKc,
               "blocking " + blocking_to_string(params) +
                   " is outside the sane range");
  const std::size_t packed_doubles =
      params.mc * params.kc + params.kc * params.nc;
  HMXP_REQUIRE(packed_doubles <= kMaxPackedBytes / sizeof(double),
               "blocking " + blocking_to_string(params) +
                   " would pack more than 256 MiB");
}

BlockingParams active_blocking() {
  if (forced_ready.load(std::memory_order_acquire)) return forced_params;
  return kDefaultBlocking;
}

void force_blocking(std::optional<BlockingParams> params) {
  if (!params.has_value()) {
    forced_ready.store(false, std::memory_order_release);
    return;
  }
  const MicroKernelVariant variant = active_micro_kernel_variant();
  validate_blocking(*params, micro_kernel_mr(variant),
                    micro_kernel_nr(variant));
  forced_params = *params;
  forced_ready.store(true, std::memory_order_release);
}

std::optional<BlockingParams> forced_blocking() {
  if (!forced_ready.load(std::memory_order_acquire)) return std::nullopt;
  return forced_params;
}

TuneOutcome resolve_blocking(MicroKernelVariant /*variant*/) {
  if (const auto forced = forced_blocking(); forced.has_value())
    return {*forced, "forced"};
  return {kDefaultBlocking, "default"};
}

std::string tuning_cache_path() { return std::string(); }

KernelConfig current_kernel_config() {
  KernelConfig config;
  config.forced_tier = forced_kernel_tier();
  config.active_tier = active_kernel_tier();
  config.forced_variant = forced_micro_kernel_variant();
  config.active_variant = active_micro_kernel_variant();
  // Only the packed tier consumes a blocking.
  config.blocking = config.active_tier == KernelTier::kPacked
                        ? active_blocking()
                        : kDefaultBlocking;
  return config;
}

void install_kernel_config(const KernelConfig& config) {
  // Pin variant before blocking: force_blocking validates against the
  // active variant's register tile.
  force_micro_kernel_variant(config.forced_variant.has_value()
                                 ? config.forced_variant
                                 : std::optional(config.active_variant));
  force_kernel_tier(config.forced_tier.has_value()
                        ? config.forced_tier
                        : std::optional(config.active_tier));
  force_blocking(config.blocking);
  // Exported for exec'd descendants (a fork inherits the pins above);
  // a variant name implies the packed tier, so it carries the most
  // information when that tier is active.
  ::setenv("HMXP_FORCE_KERNEL",
           config.active_tier == KernelTier::kPacked
               ? micro_kernel_variant_name(config.active_variant)
               : kernel_tier_name(config.active_tier),
           1);
}

}  // namespace hmxp::matrix
