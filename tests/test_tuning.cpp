// Tests for the packed GEMM's blocking: validation, the one constant
// the packed path runs unless a test pins another, and cross-transport
// parity with a non-default blocking pinned (every registered
// scheduler, thread vs process vs shm, bit-for-bit).
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "matrix/gemm.hpp"
#include "matrix/kernel_dispatch.hpp"
#include "matrix/matrix.hpp"
#include "matrix/tuning.hpp"
#include "platform/platform.hpp"
#include "runtime/executor.hpp"
#include "sched/registry.hpp"
#include "sim/scheduler.hpp"
#include "util/rng.hpp"

#if defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define HMXP_TSAN 1
#endif
#elif defined(__SANITIZE_THREAD__)
#define HMXP_TSAN 1
#endif

// fork(2) from a multithreaded parent is unsupported by TSan (the child
// inherits a broken runtime); gate explicitly instead of hiding the
// tests from the build.
#if defined(HMXP_TSAN)
#define HMXP_SKIP_UNDER_TSAN()                                     \
  GTEST_SKIP() << "the forked transports are exercised elsewhere; " \
                  "ThreadSanitizer does not support fork()"
#else
#define HMXP_SKIP_UNDER_TSAN() \
  do {                         \
  } while (false)
#endif

namespace hmxp::matrix {
namespace {

/// Unpins the blocking, so tests compose in any order and never leak a
/// pin into the rest of the binary.
struct TuningStateGuard {
  ~TuningStateGuard() { force_blocking(std::nullopt); }
};

/// Sets an environment variable for one scope, then restores its
/// previous value (or its absence).
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const std::string& value) : name_(name) {
    if (const char* previous = std::getenv(name); previous != nullptr)
      previous_ = previous;
    ::setenv(name, value.c_str(), 1);
  }
  ~ScopedEnv() {
    if (previous_.has_value())
      ::setenv(name_, previous_->c_str(), 1);
    else
      ::unsetenv(name_);
  }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  const char* name_;
  std::optional<std::string> previous_;
};

std::string temp_path(const std::string& leaf) {
  return ::testing::TempDir() + "hmxp-" + leaf + "-" +
         std::to_string(::getpid());
}

// ---- basics -----------------------------------------------------------------

TEST(Tuning, BlockingToStringAndValidate) {
  EXPECT_EQ(blocking_to_string(kDefaultBlocking), "120x256x512");
  EXPECT_NO_THROW(validate_blocking(kDefaultBlocking, 4, 8));
  EXPECT_NO_THROW(validate_blocking(kDefaultBlocking, 6, 8));
  EXPECT_NO_THROW(validate_blocking(kDefaultBlocking, 8, 8));
  // MC not a multiple of MR.
  EXPECT_THROW(validate_blocking({121, 256, 512}, 4, 8),
               std::invalid_argument);
  // NC not a multiple of NR.
  EXPECT_THROW(validate_blocking({120, 256, 100}, 4, 8),
               std::invalid_argument);
  // Zero extents.
  EXPECT_THROW(validate_blocking({0, 256, 512}, 4, 8),
               std::invalid_argument);
  EXPECT_THROW(validate_blocking({120, 0, 512}, 4, 8),
               std::invalid_argument);
  EXPECT_THROW(validate_blocking({120, 256, 0}, 4, 8),
               std::invalid_argument);
}

TEST(Tuning, ActiveBlockingIsTheDefaultUnlessForced) {
  // The environment variables that once chose a search mode and its
  // cache file change nothing: no search runs and no file appears.
  const TuningStateGuard guard;
  const std::string cache = temp_path("tuning-cache");
  std::remove(cache.c_str());
  {
    const ScopedEnv mode("HMXP_TUNE", "force");
    const ScopedEnv path("HMXP_TUNE_CACHE", cache);
    EXPECT_EQ(active_blocking(), kDefaultBlocking);
    EXPECT_STREQ(resolve_blocking(active_micro_kernel_variant()).source,
                 "default");
    EXPECT_FALSE(std::filesystem::exists(cache));
  }
  std::remove(cache.c_str());

  // A pin is the only way to run another blocking.
  force_blocking(BlockingParams{48, 96, 128});
  EXPECT_EQ(active_blocking(), (BlockingParams{48, 96, 128}));
  EXPECT_STREQ(resolve_blocking(active_micro_kernel_variant()).source,
               "forced");
}

// ---- cross-transport parity under a pinned blocking -------------------------

TEST(Tuning, EverySchedulerRepliesIdenticallyOnAllTransportsWhenTuned) {
  HMXP_SKIP_UNDER_TSAN();
  // The acceptance bar for the fork-boundary propagation: install a
  // NON-default blocking (valid for every micro-kernel tile), then for
  // every registered scheduler replay one simulated schedule on the
  // thread, process and shm transports. The hello handshake proves each
  // forked worker booted with the identical tuned configuration, and
  // the three C matrices must agree bit for bit.
  const TuningStateGuard guard;
  force_blocking(BlockingParams{48, 96, 128});
  ASSERT_EQ(active_blocking(), (BlockingParams{48, 96, 128}));

  const auto plat = platform::Platform::homogeneous(3, 0.01, 0.002, 40);
  const matrix::Partition part(52, 70, 100, 8);
  util::Rng rng(11);
  const auto a = Matrix::random(part.n_a(), part.n_ab(), rng);
  util::Rng rng_b(12);
  const auto b = Matrix::random(part.n_ab(), part.n_b(), rng_b);
  util::Rng rng_c(13);
  const Matrix c_initial = Matrix::random(part.n_a(), part.n_b(), rng_c);

  const runtime::TransportKind kinds[3] = {runtime::TransportKind::kThread,
                                           runtime::TransportKind::kProcess,
                                           runtime::TransportKind::kShm};
  for (const std::string& algorithm : sched::Registry::instance().names()) {
    SCOPED_TRACE(algorithm);
    auto probe = sched::Registry::instance().make(algorithm, plat, part);
    std::vector<sim::Decision> simulated;
    sim::simulate(*probe, plat, part, false, &simulated);

    Matrix results[3] = {c_initial, c_initial, c_initial};
    for (int which = 0; which < 3; ++which) {
      sim::ReplayScheduler replay(algorithm, simulated);
      runtime::ExecutorOptions options;
      options.transport = kinds[which];
      const runtime::ExecutorReport report = runtime::execute_online(
          replay, plat, part, a, b, results[which], options);
      EXPECT_TRUE(report.verified)
          << runtime::transport_kind_name(kinds[which]);
      // The report names the tuned configuration it ran under.
      EXPECT_EQ(report.kernel_blocking, (BlockingParams{48, 96, 128}));
    }
    EXPECT_EQ(Matrix::max_abs_diff(results[1], results[0]), 0.0);
    EXPECT_EQ(Matrix::max_abs_diff(results[2], results[0]), 0.0);
  }
}

}  // namespace
}  // namespace hmxp::matrix
