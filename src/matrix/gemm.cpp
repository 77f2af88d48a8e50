#include "matrix/gemm.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstring>
#include <exception>
#include <mutex>

#include "matrix/kernel_dispatch.hpp"
#include "util/aligned.hpp"
#include "util/check.hpp"
#include "util/thread_pool.hpp"

#if defined(__x86_64__) && defined(__GNUC__)
#define HMXP_X86_TARGETS 1
#include <immintrin.h>
#endif

namespace hmxp::matrix {

namespace {
void check_shapes(ConstView a, ConstView b, const View& c) {
  HMXP_REQUIRE(a.cols() == b.rows(), "inner dimensions differ");
  HMXP_REQUIRE(c.rows() == a.rows() && c.cols() == b.cols(),
               "output shape mismatch");
}

ConstView subview(ConstView v, std::size_t row0, std::size_t col0,
                  std::size_t rows, std::size_t cols) {
  return ConstView(v.row(row0) + col0, rows, cols, v.stride());
}

View subview(View v, std::size_t row0, std::size_t col0, std::size_t rows,
             std::size_t cols) {
  return View(v.row(row0) + col0, rows, cols, v.stride());
}

// ---------------------------------------------------------------------------
// Tiled scalar kernel (the "tiled" tier, kept as the portable baseline).
// Tile sizes: MC x KC panel of A resident in L2, KC x NR slab of B
// streamed, 1 x NR register accumulation.
constexpr std::size_t kTiledMc = 64;
constexpr std::size_t kTiledKc = 128;
constexpr std::size_t kTiledNr = 4;

void tile_kernel(ConstView a, ConstView b, View c, std::size_t i0,
                 std::size_t i1, std::size_t k0, std::size_t k1) {
  const std::size_t n = c.cols();
  for (std::size_t i = i0; i < i1; ++i) {
    const double* a_row = a.row(i);
    double* c_row = c.row(i);
    std::size_t j = 0;
    // 4-wide register-blocked main loop.
    for (; j + kTiledNr <= n; j += kTiledNr) {
      double acc0 = 0.0, acc1 = 0.0, acc2 = 0.0, acc3 = 0.0;
      for (std::size_t k = k0; k < k1; ++k) {
        const double aik = a_row[k];
        const double* b_row = b.row(k);
        acc0 += aik * b_row[j];
        acc1 += aik * b_row[j + 1];
        acc2 += aik * b_row[j + 2];
        acc3 += aik * b_row[j + 3];
      }
      c_row[j] += acc0;
      c_row[j + 1] += acc1;
      c_row[j + 2] += acc2;
      c_row[j + 3] += acc3;
    }
    // Remainder columns.
    for (; j < n; ++j) {
      double acc = 0.0;
      for (std::size_t k = k0; k < k1; ++k) acc += a_row[k] * b.row(k)[j];
      c_row[j] += acc;
    }
  }
}

void gemm_tiled_unchecked(ConstView a, ConstView b, View c) {
  const std::size_t kk = a.cols();
  for (std::size_t i0 = 0; i0 < c.rows(); i0 += kTiledMc) {
    const std::size_t i1 = std::min(i0 + kTiledMc, c.rows());
    for (std::size_t k0 = 0; k0 < kk; k0 += kTiledKc) {
      const std::size_t k1 = std::min(k0 + kTiledKc, kk);
      tile_kernel(a, b, c, i0, i1, k0, k1);
    }
  }
}

// ---------------------------------------------------------------------------
// Packed path (the "simd" tier): BLIS-style blocking. A is packed into
// MC x KC panels of MR-row slivers (sliver layout a[k*MR + r], zero-
// padded to MR), B into KC x NC panels of NR-column slivers
// (b[k*NR + c], zero-padded to NR), both in 64-byte-aligned
// thread-local buffers; the micro-kernel then runs unconditionally on
// full MR x NR register tiles, with short edge tiles accumulated
// through a small stack buffer.
//
// MC/KC/NC -- the A panel sized for L2, the B panel for L3 -- are a
// runtime BlockingParams from matrix/tuning.hpp: the 120/256/512
// constant unless a test pins another. The register-tile bounds stay
// static, for the edge-tile stack buffer: the widest micro-kernel is
// the AVX-512 8x8.
constexpr std::size_t kMaxMr = 8;
constexpr std::size_t kMaxNr = 8;

/// C[MR x NR] += packed_a (KC x MR slivers) * packed_b (KC x NR slivers).
/// `c` has row stride ldc and is NOT assumed aligned.
using MicroKernel = void (*)(std::size_t kc, const double* a, const double* b,
                             double* c, std::size_t ldc);

struct MicroKernelInfo {
  std::size_t mr = 0;
  std::size_t nr = 0;
  MicroKernel fn = nullptr;
};

/// Portable 4x8 micro-kernel: 32 scalar accumulators the compiler keeps
/// in registers and auto-vectorizes (SSE2 on baseline x86-64).
void micro_kernel_portable_4x8(std::size_t kc, const double* a,
                               const double* b, double* c, std::size_t ldc) {
  double acc[4][8] = {};
  for (std::size_t k = 0; k < kc; ++k) {
    const double* bk = b + k * 8;
    const double* ak = a + k * 4;
    for (std::size_t r = 0; r < 4; ++r) {
      const double ar = ak[r];
      for (std::size_t j = 0; j < 8; ++j) acc[r][j] += ar * bk[j];
    }
  }
  for (std::size_t r = 0; r < 4; ++r) {
    double* c_row = c + r * ldc;
    for (std::size_t j = 0; j < 8; ++j) c_row[j] += acc[r][j];
  }
}

#ifdef HMXP_X86_TARGETS
/// AVX2+FMA 6x8 micro-kernel: 12 ymm accumulators (6 rows x 2 vectors),
/// 2 ymm B loads (aligned: slivers are 64-byte aligned and each k-step
/// advances 8 doubles) and 1 broadcast per row per k. Compiled with a
/// target attribute so the rest of the binary stays baseline-ISA; only
/// dispatched when cpuid reports AVX2 and FMA.
__attribute__((target("avx2,fma"))) void micro_kernel_avx2_6x8(
    std::size_t kc, const double* a, const double* b, double* c,
    std::size_t ldc) {
  __m256d c00 = _mm256_setzero_pd(), c01 = _mm256_setzero_pd();
  __m256d c10 = _mm256_setzero_pd(), c11 = _mm256_setzero_pd();
  __m256d c20 = _mm256_setzero_pd(), c21 = _mm256_setzero_pd();
  __m256d c30 = _mm256_setzero_pd(), c31 = _mm256_setzero_pd();
  __m256d c40 = _mm256_setzero_pd(), c41 = _mm256_setzero_pd();
  __m256d c50 = _mm256_setzero_pd(), c51 = _mm256_setzero_pd();
  for (std::size_t k = 0; k < kc; ++k) {
    const __m256d b0 = _mm256_load_pd(b + k * 8);
    const __m256d b1 = _mm256_load_pd(b + k * 8 + 4);
    const double* ak = a + k * 6;
    __m256d ar = _mm256_broadcast_sd(ak + 0);
    c00 = _mm256_fmadd_pd(ar, b0, c00);
    c01 = _mm256_fmadd_pd(ar, b1, c01);
    ar = _mm256_broadcast_sd(ak + 1);
    c10 = _mm256_fmadd_pd(ar, b0, c10);
    c11 = _mm256_fmadd_pd(ar, b1, c11);
    ar = _mm256_broadcast_sd(ak + 2);
    c20 = _mm256_fmadd_pd(ar, b0, c20);
    c21 = _mm256_fmadd_pd(ar, b1, c21);
    ar = _mm256_broadcast_sd(ak + 3);
    c30 = _mm256_fmadd_pd(ar, b0, c30);
    c31 = _mm256_fmadd_pd(ar, b1, c31);
    ar = _mm256_broadcast_sd(ak + 4);
    c40 = _mm256_fmadd_pd(ar, b0, c40);
    c41 = _mm256_fmadd_pd(ar, b1, c41);
    ar = _mm256_broadcast_sd(ak + 5);
    c50 = _mm256_fmadd_pd(ar, b0, c50);
    c51 = _mm256_fmadd_pd(ar, b1, c51);
  }
  double* r0 = c;
  double* r1 = c + ldc;
  double* r2 = c + 2 * ldc;
  double* r3 = c + 3 * ldc;
  double* r4 = c + 4 * ldc;
  double* r5 = c + 5 * ldc;
  _mm256_storeu_pd(r0, _mm256_add_pd(_mm256_loadu_pd(r0), c00));
  _mm256_storeu_pd(r0 + 4, _mm256_add_pd(_mm256_loadu_pd(r0 + 4), c01));
  _mm256_storeu_pd(r1, _mm256_add_pd(_mm256_loadu_pd(r1), c10));
  _mm256_storeu_pd(r1 + 4, _mm256_add_pd(_mm256_loadu_pd(r1 + 4), c11));
  _mm256_storeu_pd(r2, _mm256_add_pd(_mm256_loadu_pd(r2), c20));
  _mm256_storeu_pd(r2 + 4, _mm256_add_pd(_mm256_loadu_pd(r2 + 4), c21));
  _mm256_storeu_pd(r3, _mm256_add_pd(_mm256_loadu_pd(r3), c30));
  _mm256_storeu_pd(r3 + 4, _mm256_add_pd(_mm256_loadu_pd(r3 + 4), c31));
  _mm256_storeu_pd(r4, _mm256_add_pd(_mm256_loadu_pd(r4), c40));
  _mm256_storeu_pd(r4 + 4, _mm256_add_pd(_mm256_loadu_pd(r4 + 4), c41));
  _mm256_storeu_pd(r5, _mm256_add_pd(_mm256_loadu_pd(r5), c50));
  _mm256_storeu_pd(r5 + 4, _mm256_add_pd(_mm256_loadu_pd(r5 + 4), c51));
}

/// AVX-512F 8x8 micro-kernel: 8 zmm accumulators (one full C row each),
/// 1 aligned zmm B load (the sliver is 64-byte aligned and each k-step
/// advances 8 doubles = exactly one cache line) and 1 broadcast+FMA per
/// row per k. Half the register pressure of the AVX2 kernel for the
/// same tile row count, leaving zmm8-31 free for the compiler to
/// software-pipeline the loads.
__attribute__((target("avx512f"))) void micro_kernel_avx512_8x8(
    std::size_t kc, const double* a, const double* b, double* c,
    std::size_t ldc) {
  __m512d c0 = _mm512_setzero_pd();
  __m512d c1 = _mm512_setzero_pd();
  __m512d c2 = _mm512_setzero_pd();
  __m512d c3 = _mm512_setzero_pd();
  __m512d c4 = _mm512_setzero_pd();
  __m512d c5 = _mm512_setzero_pd();
  __m512d c6 = _mm512_setzero_pd();
  __m512d c7 = _mm512_setzero_pd();
  for (std::size_t k = 0; k < kc; ++k) {
    const __m512d bk = _mm512_load_pd(b + k * 8);
    const double* ak = a + k * 8;
    c0 = _mm512_fmadd_pd(_mm512_set1_pd(ak[0]), bk, c0);
    c1 = _mm512_fmadd_pd(_mm512_set1_pd(ak[1]), bk, c1);
    c2 = _mm512_fmadd_pd(_mm512_set1_pd(ak[2]), bk, c2);
    c3 = _mm512_fmadd_pd(_mm512_set1_pd(ak[3]), bk, c3);
    c4 = _mm512_fmadd_pd(_mm512_set1_pd(ak[4]), bk, c4);
    c5 = _mm512_fmadd_pd(_mm512_set1_pd(ak[5]), bk, c5);
    c6 = _mm512_fmadd_pd(_mm512_set1_pd(ak[6]), bk, c6);
    c7 = _mm512_fmadd_pd(_mm512_set1_pd(ak[7]), bk, c7);
  }
  double* r0 = c;
  _mm512_storeu_pd(r0, _mm512_add_pd(_mm512_loadu_pd(r0), c0));
  r0 += ldc;
  _mm512_storeu_pd(r0, _mm512_add_pd(_mm512_loadu_pd(r0), c1));
  r0 += ldc;
  _mm512_storeu_pd(r0, _mm512_add_pd(_mm512_loadu_pd(r0), c2));
  r0 += ldc;
  _mm512_storeu_pd(r0, _mm512_add_pd(_mm512_loadu_pd(r0), c3));
  r0 += ldc;
  _mm512_storeu_pd(r0, _mm512_add_pd(_mm512_loadu_pd(r0), c4));
  r0 += ldc;
  _mm512_storeu_pd(r0, _mm512_add_pd(_mm512_loadu_pd(r0), c5));
  r0 += ldc;
  _mm512_storeu_pd(r0, _mm512_add_pd(_mm512_loadu_pd(r0), c6));
  r0 += ldc;
  _mm512_storeu_pd(r0, _mm512_add_pd(_mm512_loadu_pd(r0), c7));
}
#endif  // HMXP_X86_TARGETS

/// Implementation table for the active variant, selected per call from
/// the pin/env/cpuid resolution -- one relaxed atomic load, negligible
/// next to packing. The host can always execute it
/// (force_micro_kernel_variant and the env pin both reject unsupported
/// ISAs, and the default is cpuid-derived).
MicroKernelInfo micro_kernel_info() {
#ifdef HMXP_X86_TARGETS
  const MicroKernelVariant variant = active_micro_kernel_variant();
  if (variant == MicroKernelVariant::kAvx512)
    return {8, 8, &micro_kernel_avx512_8x8};
  if (variant == MicroKernelVariant::kAvx2Fma)
    return {6, 8, &micro_kernel_avx2_6x8};
#endif
  return {4, 8, &micro_kernel_portable_4x8};
}

/// Packs A[i0:i0+mc, k0:k0+kc] into MR-row slivers: sliver s holds rows
/// [i0+s*mr, i0+s*mr+mr) column-major within the sliver
/// (out[s*kc*mr + k*mr + r]), short slivers zero-padded to mr. The
/// scattered writes land in a kc*mr (<= 12 KiB) region that stays in L1.
void pack_a(ConstView a, std::size_t i0, std::size_t mc, std::size_t k0,
            std::size_t kc, std::size_t mr, double* out) {
  for (std::size_t s = 0; s * mr < mc; ++s) {
    const std::size_t row0 = s * mr;
    const std::size_t rows = std::min(mr, mc - row0);
    double* dst = out + s * kc * mr;
    for (std::size_t r = 0; r < rows; ++r) {
      const double* src = a.row(i0 + row0 + r) + k0;
      for (std::size_t k = 0; k < kc; ++k) dst[k * mr + r] = src[k];
    }
    for (std::size_t r = rows; r < mr; ++r)
      for (std::size_t k = 0; k < kc; ++k) dst[k * mr + r] = 0.0;
  }
}

/// Packs B[k0:k0+kc, j0:j0+nc] into NR-column slivers
/// (out[s*kc*nr + k*nr + c]), short slivers zero-padded to nr.
void pack_b(ConstView b, std::size_t k0, std::size_t kc, std::size_t j0,
            std::size_t nc, std::size_t nr, double* out) {
  for (std::size_t s = 0; s * nr < nc; ++s) {
    const std::size_t col0 = s * nr;
    const std::size_t cols = std::min(nr, nc - col0);
    double* dst = out + s * kc * nr;
    for (std::size_t k = 0; k < kc; ++k) {
      const double* src = b.row(k0 + k) + j0 + col0;
      double* row = dst + k * nr;
      for (std::size_t c = 0; c < cols; ++c) row[c] = src[c];
      for (std::size_t c = cols; c < nr; ++c) row[c] = 0.0;
    }
  }
}

/// Runs the micro-kernel over every MR x NR register tile of a packed
/// MC x NC block. Interior tiles accumulate straight into C; edge tiles
/// compute into a zeroed stack buffer and fold the valid region in.
void macro_kernel(const MicroKernelInfo& mk, std::size_t mc, std::size_t nc,
                  std::size_t kc, const double* apack, const double* bpack,
                  View c, std::size_t i0, std::size_t j0) {
  for (std::size_t js = 0; js * mk.nr < nc; ++js) {
    const std::size_t col0 = js * mk.nr;
    const std::size_t cols = std::min(mk.nr, nc - col0);
    const double* b_sliver = bpack + js * kc * mk.nr;
    for (std::size_t is = 0; is * mk.mr < mc; ++is) {
      const std::size_t row0 = is * mk.mr;
      const std::size_t rows = std::min(mk.mr, mc - row0);
      const double* a_sliver = apack + is * kc * mk.mr;
      double* c_tile = c.row(i0 + row0) + j0 + col0;
      if (rows == mk.mr && cols == mk.nr) {
        mk.fn(kc, a_sliver, b_sliver, c_tile, c.stride());
      } else {
        alignas(util::kCacheLineBytes) double tmp[kMaxMr * kMaxNr] = {};
        mk.fn(kc, a_sliver, b_sliver, tmp, mk.nr);
        for (std::size_t r = 0; r < rows; ++r) {
          double* c_row = c_tile + r * c.stride();
          const double* t_row = tmp + r * mk.nr;
          for (std::size_t j = 0; j < cols; ++j) c_row[j] += t_row[j];
        }
      }
    }
  }
}

/// Per-thread pack buffers: grow-only, reused for the lifetime of the
/// thread. Growth only happens when a run needs MORE capacity than any
/// previous run on this thread -- changing BlockingParams between runs
/// (a forced pin) never shrinks or reallocates downward, so
/// after one warm-up at the largest blocking in play, steady-state GEMM
/// performs zero heap allocation (asserted by tests, the same contract
/// PR-3 established for BufferPool).
struct PackBuffers {
  util::AlignedVector<double> a;
  util::AlignedVector<double> b;
};

PackBuffers& thread_pack_buffers() {
  thread_local PackBuffers buffers;
  return buffers;
}

std::atomic<std::size_t> pack_buffer_allocation_count{0};

/// Grows `buffer` to hold `needed` doubles; counts only actual heap
/// growth, never a same-or-smaller request.
double* ensure_pack_capacity(util::AlignedVector<double>& buffer,
                             std::size_t needed) {
  if (needed > buffer.size()) {
    if (needed > buffer.capacity())
      pack_buffer_allocation_count.fetch_add(1, std::memory_order_relaxed);
    buffer.resize(needed);
  }
  return buffer.data();
}

constexpr std::size_t round_up(std::size_t value, std::size_t unit) {
  return (value + unit - 1) / unit * unit;
}

void gemm_packed_unchecked(ConstView a, ConstView b, View c,
                           const MicroKernelInfo& mk,
                           const BlockingParams& blocking) {
  const std::size_t m = c.rows();
  const std::size_t n = c.cols();
  const std::size_t kk = a.cols();
  if (m == 0 || n == 0 || kk == 0) return;

  PackBuffers& buffers = thread_pack_buffers();
  // Sliver zero-padding means the packed extents round up to MR/NR.
  double* apack = ensure_pack_capacity(
      buffers.a,
      round_up(std::min(m, blocking.mc), mk.mr) * std::min(kk, blocking.kc));
  double* bpack = ensure_pack_capacity(
      buffers.b,
      round_up(std::min(n, blocking.nc), mk.nr) * std::min(kk, blocking.kc));

  for (std::size_t jc = 0; jc < n; jc += blocking.nc) {
    const std::size_t nc = std::min(blocking.nc, n - jc);
    for (std::size_t kc0 = 0; kc0 < kk; kc0 += blocking.kc) {
      const std::size_t kc = std::min(blocking.kc, kk - kc0);
      pack_b(b, kc0, kc, jc, nc, mk.nr, bpack);
      for (std::size_t ic = 0; ic < m; ic += blocking.mc) {
        const std::size_t mc = std::min(blocking.mc, m - ic);
        pack_a(a, ic, mc, kc0, kc, mk.mr, apack);
        macro_kernel(mk, mc, nc, kc, apack, bpack, c, ic, jc);
      }
    }
  }
}

void gemm_packed_unchecked(ConstView a, ConstView b, View c) {
  gemm_packed_unchecked(a, b, c, micro_kernel_info(), active_blocking());
}

void gemm_naive_unchecked(ConstView a, ConstView b, View c) {
  for (std::size_t i = 0; i < c.rows(); ++i) {
    for (std::size_t j = 0; j < c.cols(); ++j) {
      double acc = 0.0;
      for (std::size_t k = 0; k < a.cols(); ++k)
        acc += a.at(i, k) * b.at(k, j);
      c.at(i, j) += acc;
    }
  }
}

void dispatch_serial(ConstView a, ConstView b, View c) {
  switch (active_kernel_tier()) {
    case KernelTier::kNaive:
      gemm_naive_unchecked(a, b, c);
      return;
    case KernelTier::kTiled:
      gemm_tiled_unchecked(a, b, c);
      return;
    case KernelTier::kPacked:
      gemm_packed_unchecked(a, b, c);
      return;
  }
}

// ---------------------------------------------------------------------------
// Parallel driver: a 2-D grid of C tiles claimed from an atomic cursor
// (work-stealing: fast threads simply claim more tiles), each tile run
// through the active serial kernel on a disjoint C window. The pool is
// shared and persistent -- no per-call thread spawn.

util::ThreadPool& shared_gemm_pool() {
  static util::ThreadPool pool;  // hardware_concurrency workers
  return pool;
}

struct TileRun {
  ConstView a;
  ConstView b;
  View c;
  std::size_t tile_m = 0, tile_n = 0;
  std::size_t grid_m = 0, grid_n = 0;
  std::atomic<std::size_t> cursor{0};

  std::mutex mutex;
  std::condition_variable done;
  std::size_t helpers_running = 0;
  std::exception_ptr error;

  TileRun(ConstView a_in, ConstView b_in, View c_in)
      : a(a_in), b(b_in), c(c_in) {}

  std::size_t tile_count() const { return grid_m * grid_n; }

  void drain() {
    for (std::size_t t = cursor.fetch_add(1, std::memory_order_relaxed);
         t < tile_count();
         t = cursor.fetch_add(1, std::memory_order_relaxed)) {
      const std::size_t ti = t / grid_n;
      const std::size_t tj = t % grid_n;
      const std::size_t i0 = ti * tile_m;
      const std::size_t j0 = tj * tile_n;
      const std::size_t rows = std::min(tile_m, c.rows() - i0);
      const std::size_t cols = std::min(tile_n, c.cols() - j0);
      dispatch_serial(subview(a, i0, 0, rows, a.cols()),
                      subview(b, 0, j0, b.rows(), cols),
                      subview(c, i0, j0, rows, cols));
    }
  }
};

/// Picks tile extents: start from the active MC x NC blocking (a
/// pinned NC changes the natural tile width) and shrink toward
/// micro-tile multiples until the grid feeds every participant, so
/// tall-skinny / short-wide shapes still split evenly. Aligning tiles
/// to NC keeps each worker's packed-B panel private to its own
/// thread-local buffer: every thread packs (first-touches) the B
/// columns it multiplies, which places the panels on the worker's own
/// NUMA node instead of sharing one master-packed copy across sockets.
void choose_tiles(TileRun& run, std::size_t workers) {
  const std::size_t m = run.c.rows();
  const std::size_t n = run.c.cols();
  const BlockingParams blocking = active_blocking();
  run.tile_m = blocking.mc;
  run.tile_n = blocking.nc;
  const std::size_t target = 4 * workers;
  auto grid = [&] {
    run.grid_m = (m + run.tile_m - 1) / run.tile_m;
    run.grid_n = (n + run.tile_n - 1) / run.tile_n;
    return run.grid_m * run.grid_n;
  };
  while (grid() < target &&
         (run.tile_m > kMaxMr * 2 || run.tile_n > kMaxNr * 2)) {
    // Halve the larger extent, keeping micro-tile-multiple sizes.
    if (run.tile_m >= run.tile_n && run.tile_m > kMaxMr * 2)
      run.tile_m = round_up(run.tile_m / 2, kMaxMr * 2);
    else
      run.tile_n = round_up(run.tile_n / 2, kMaxNr);
  }
  grid();
}

}  // namespace

void gemm_naive(ConstView a, ConstView b, View c) {
  check_shapes(a, b, c);
  gemm_naive_unchecked(a, b, c);
}

void gemm_tiled(ConstView a, ConstView b, View c) {
  check_shapes(a, b, c);
  gemm_tiled_unchecked(a, b, c);
}

void gemm_simd(ConstView a, ConstView b, View c) {
  check_shapes(a, b, c);
  gemm_packed_unchecked(a, b, c);
}

void gemm_simd_with_blocking(ConstView a, ConstView b, View c,
                             const BlockingParams& blocking) {
  check_shapes(a, b, c);
  const MicroKernelInfo mk = micro_kernel_info();
  validate_blocking(blocking, mk.mr, mk.nr);
  gemm_packed_unchecked(a, b, c, mk, blocking);
}

std::size_t pack_buffer_allocations() {
  return pack_buffer_allocation_count.load(std::memory_order_relaxed);
}

void gemm_auto(ConstView a, ConstView b, View c) {
  check_shapes(a, b, c);
  dispatch_serial(a, b, c);
}

void gemm_parallel(ConstView a, ConstView b, View c, int threads) {
  check_shapes(a, b, c);
  if (c.rows() == 0 || c.cols() == 0) return;
  util::ThreadPool& pool = shared_gemm_pool();
  // Default: hardware_concurrency participants TOTAL (the caller counts
  // as one), matching the old per-call-spawn thread budget.
  const std::size_t want = threads > 0 ? static_cast<std::size_t>(threads)
                                       : static_cast<std::size_t>(pool.size());

  TileRun run(a, b, c);
  choose_tiles(run, want);
  // Helpers beyond the tile count (or the pool) would only idle.
  const std::size_t helpers =
      std::min({want - 1, static_cast<std::size_t>(pool.size()),
                run.tile_count() - 1});
  if (helpers == 0) {
    dispatch_serial(a, b, c);
    return;
  }

  {
    const std::lock_guard<std::mutex> lock(run.mutex);
    run.helpers_running = helpers;
  }
  // If a submit throws (bad_alloc, pool shutting down), the helpers
  // already queued still hold &run: un-count the never-submitted rest,
  // then fall through to the normal drain-and-wait so the stack frame
  // outlives every queued helper, and rethrow only after the join.
  std::exception_ptr submit_error;
  for (std::size_t submitted = 0; submitted < helpers; ++submitted) {
    try {
      pool.submit([&run] {
        std::exception_ptr error;
        try {
          run.drain();
        } catch (...) {
          error = std::current_exception();
        }
        const std::lock_guard<std::mutex> lock(run.mutex);
        if (error != nullptr && run.error == nullptr) run.error = error;
        if (--run.helpers_running == 0) run.done.notify_all();
      });
    } catch (...) {
      submit_error = std::current_exception();
      const std::lock_guard<std::mutex> lock(run.mutex);
      run.helpers_running -= helpers - submitted;
      break;
    }
  }
  // The caller is a full participant: it steals tiles like any helper,
  // which also guarantees progress when the pool is busy elsewhere.
  std::exception_ptr own_error;
  try {
    run.drain();
  } catch (...) {
    own_error = std::current_exception();
  }
  std::unique_lock<std::mutex> lock(run.mutex);
  run.done.wait(lock, [&run] { return run.helpers_running == 0; });
  lock.unlock();
  if (own_error != nullptr) std::rethrow_exception(own_error);
  if (run.error != nullptr) std::rethrow_exception(run.error);
  if (submit_error != nullptr) std::rethrow_exception(submit_error);
}

void gemm(const Matrix& a, const Matrix& b, Matrix& c) {
  HMXP_REQUIRE(a.cols() == b.rows(), "inner dimensions differ");
  HMXP_REQUIRE(c.rows() == a.rows() && c.cols() == b.cols(),
               "output shape mismatch");
  gemm_auto(a.view(), b.view(), c.view());
}

double gemm_flops(std::size_t m, std::size_t n, std::size_t k) {
  return 2.0 * static_cast<double>(m) * static_cast<double>(n) *
         static_cast<double>(k);
}

}  // namespace hmxp::matrix
