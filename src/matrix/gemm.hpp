// GEMM kernels: C += A * B on views.
//
// The paper assumes ATLAS-generated Level-3 BLAS on each worker; hmxp is
// dependency-free, so it carries its own kernels:
//   * gemm_naive     -- reference i-j-k triple loop, the test oracle;
//   * gemm_tiled     -- cache-tiled i-k-j with 4-wide register blocking;
//                       the portable comparison baseline and the "tiled"
//                       dispatch tier;
//   * gemm_simd      -- the production kernel: BLIS-style packed path.
//                       A is packed into MC x KC and B into KC x NC
//                       contiguous 64-byte-aligned panels of MR/NR
//                       slivers, driven through a register-tiled
//                       micro-kernel (AVX2+FMA when the CPU has it,
//                       auto-vectorized portable otherwise -- see
//                       matrix/kernel_dispatch.hpp);
//   * gemm_auto      -- dispatches to the active kernel tier (honours
//                       HMXP_FORCE_KERNEL / force_kernel_tier);
//   * gemm_parallel  -- 2-D tile decomposition of C fanned over the
//                       shared persistent util::ThreadPool with
//                       work-stealing (an atomic tile cursor); each tile
//                       runs the active serial kernel on a disjoint C
//                       region, so no synchronization beyond the final
//                       join is needed.
//
// All kernels accumulate (C += A*B), matching the paper's kernel
// C <- C + A B, and all accept rectangular shapes so edge blocks
// (short rows/cols) work unchanged.
#pragma once

#include <cstddef>

#include "matrix/kernel_dispatch.hpp"
#include "matrix/matrix.hpp"
#include "matrix/tuning.hpp"

namespace hmxp::matrix {

/// Reference kernel. Requires a.cols() == b.rows(), c is a.rows() x b.cols().
void gemm_naive(ConstView a, ConstView b, View c);

/// Cache-tiled scalar kernel; same contract as gemm_naive.
void gemm_tiled(ConstView a, ConstView b, View c);

/// Packed micro-kernel path (the "simd" tier); same contract. Blocking
/// comes from matrix/tuning.hpp's active_blocking() (a forced pin, or
/// else the 120/256/512 constant).
void gemm_simd(ConstView a, ConstView b, View c);

/// Packed path with an explicit blocking on the active micro-kernel
/// (validated against its register tile; throws std::invalid_argument
/// on an absurd one). Never consults active_blocking(), so
/// blocking-edge tests and benches run any blocking without pinning.
void gemm_simd_with_blocking(ConstView a, ConstView b, View c,
                             const BlockingParams& blocking);

/// Number of times any thread's packing buffers grew since process
/// start. The buffers are grow-only: after a warm-up call at the
/// largest blocking in play, steady-state GEMM performs zero heap
/// allocation even when BlockingParams change between runs.
std::size_t pack_buffer_allocations();

/// Dispatches to the active kernel tier (see kernel_dispatch.hpp).
void gemm_auto(ConstView a, ConstView b, View c);

/// Multi-threaded kernel over the shared persistent thread pool;
/// `threads` <= 0 picks hardware_concurrency, and any request is
/// clamped to the pool size + the calling thread (oversubscribing a
/// compute-bound kernel never helps; the count only bounds
/// parallelism, never changes the result). Tiles of C are claimed
/// work-stealing style, so any thread count is load-balanced --
/// including tall-skinny and short-wide C.
void gemm_parallel(ConstView a, ConstView b, View c, int threads = 0);

/// Whole-matrix convenience: c += a * b (through gemm_auto).
void gemm(const Matrix& a, const Matrix& b, Matrix& c);

/// Flop count of one such update (2 * m * n * k).
double gemm_flops(std::size_t m, std::size_t n, std::size_t k);

}  // namespace hmxp::matrix
