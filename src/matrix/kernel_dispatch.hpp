// Runtime kernel dispatch for the GEMM compute plane.
//
// Two orthogonal axes are resolved at runtime:
//
//  * the TIER -- which algorithm runs:
//      kNaive  -- the i-j-k oracle (tests only);
//      kTiled  -- the cache-tiled scalar kernel (the pre-packing
//                 production kernel, kept as the portable comparison
//                 baseline);
//      kPacked -- the BLIS-style path: operands packed into aligned
//                 MR/NR slivers and driven through a register-tiled
//                 micro-kernel;
//
//  * the packed tier's MICRO-KERNEL VARIANT -- which ISA implements the
//    register tile, widest supported first:
//      kAvx512   -- 8x8, zmm accumulators (AVX-512F);
//      kAvx2Fma  -- 6x8, ymm accumulators (AVX2+FMA);
//      kPortable -- 4x8, auto-vectorized scalar (baseline x86-64 or
//                   any other architecture).
//
// The active tier/variant pair is resolved once, in this order:
//   1. programmatic pins -- force_kernel_tier() /
//      force_micro_kernel_variant() (tests/benches/forked workers);
//   2. the HMXP_FORCE_KERNEL environment variable. It accepts tier
//      names (naive|tiled|simd) and variant names (portable|avx2|
//      avx512 -- each implies the packed tier), so any host --
//      including CI machines without AVX2/AVX-512 -- can pin the
//      dispatch; an unrecognized value throws, typos must not silently
//      change an experiment;
//   3. kPacked with the widest micro-kernel cpuid reports.
//
// Blocking parameters (MC/KC/NC) for the packed tier live in
// matrix/tuning.hpp: one constant, which tests may pin to another.
#pragma once

#include <cstddef>
#include <optional>
#include <string>

namespace hmxp::matrix {

enum class KernelTier { kNaive, kTiled, kPacked };

/// Micro-kernel implementations of the packed tier, narrowest first
/// (the enum order is also the preference order reversed).
enum class MicroKernelVariant { kPortable, kAvx2Fma, kAvx512 };

/// "naive", "tiled" or "simd" (the user-facing name of kPacked).
const char* kernel_tier_name(KernelTier tier);

/// "portable", "avx2+fma" or "avx512".
const char* micro_kernel_variant_name(MicroKernelVariant variant);

/// Parses a tier name (case-insensitive); nullopt if unrecognized.
std::optional<KernelTier> parse_kernel_tier(const std::string& name);

/// Parses a variant name (case-insensitive; "avx2" and "avx2+fma" both
/// name kAvx2Fma); nullopt if unrecognized.
std::optional<MicroKernelVariant> parse_micro_kernel_variant(
    const std::string& name);

/// A combined dispatch pin as HMXP_FORCE_KERNEL / --kernel spell it:
/// tier names pin only the tier; variant names pin the packed tier AND
/// its micro-kernel.
struct KernelPin {
  std::optional<KernelTier> tier;
  std::optional<MicroKernelVariant> variant;
};

/// Parses a pin name (naive|tiled|simd|portable|avx2|avx512,
/// case-insensitive); nullopt if unrecognized.
std::optional<KernelPin> parse_kernel_pin(const std::string& name);

/// Every name parse_kernel_pin accepts, for error messages:
/// "naive, tiled, simd, portable, avx2 or avx512".
const char* kernel_pin_names();

/// Parses `name` and installs it as the programmatic pin
/// (force_kernel_tier + force_micro_kernel_variant). Throws
/// std::invalid_argument listing kernel_pin_names() on an unrecognized
/// name, and if the named ISA is not executable on this host.
void apply_kernel_pin(const std::string& name);

/// The tier gemm_auto/gemm_parallel dispatch to right now.
KernelTier active_kernel_tier();

/// Pins (or, with nullopt, unpins) the dispatch tier for this process.
/// Takes precedence over HMXP_FORCE_KERNEL. Not thread-safe against
/// concurrent GEMM calls; call from test/bench setup only.
void force_kernel_tier(std::optional<KernelTier> tier);

/// The programmatic pin currently in force (nullopt = none). The
/// process/shm transports capture it (together with the full
/// matrix::KernelConfig) before forking and re-assert it inside every
/// worker process, so a --kernel / force_kernel_tier() choice governs
/// the micro-kernel on every transport.
std::optional<KernelTier> forced_kernel_tier();

/// The micro-kernel the packed tier dispatches to right now
/// (pin > HMXP_FORCE_KERNEL variant > widest supported).
MicroKernelVariant active_micro_kernel_variant();

/// Pins (or unpins) the packed tier's micro-kernel. Pinning narrower
/// than the host (portable/avx2 on an AVX-512 machine) is always legal
/// -- that is how the fallbacks are tested and measured anywhere --
/// but pinning an ISA the host cannot execute throws
/// std::invalid_argument. Not thread-safe against concurrent GEMM.
void force_micro_kernel_variant(std::optional<MicroKernelVariant> variant);
std::optional<MicroKernelVariant> forced_micro_kernel_variant();

/// Register-tile extents of a variant's micro-kernel: MR rows x NR
/// columns of C per invocation. Blocking parameters are validated
/// against these (MC must be a multiple of MR, NC of NR).
std::size_t micro_kernel_mr(MicroKernelVariant variant);
std::size_t micro_kernel_nr(MicroKernelVariant variant);

/// True when the running CPU can execute the AVX2+FMA micro-kernel.
bool cpu_supports_avx2_fma();

/// True when the running CPU can execute the AVX-512 micro-kernel
/// (AVX-512F is sufficient for the 8x8 double kernel).
bool cpu_supports_avx512();

/// True when `variant` can execute on this host.
bool micro_kernel_supported(MicroKernelVariant variant);

/// Back-compat wrapper: force=true pins kPortable, force=false unpins.
void force_portable_micro_kernel(bool force);
bool portable_micro_kernel_forced();

/// Name of the micro-kernel the packed tier uses right now:
/// "avx512", "avx2+fma" or "portable" -- the same string
/// ExecutorReport::kernel_variant and the bench context carry.
const char* packed_kernel_variant();

}  // namespace hmxp::matrix
