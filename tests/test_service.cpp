// The persistent multi-job service (service/daemon.hpp): admission,
// fair sharing, warm pools, lease-based concurrency, calibration
// persistence and the loopback-TCP front-end.
//
// The load-bearing property throughout: a service job and a standalone
// execute_online of the same (partition, seed) pair produce a
// BIT-FOR-BIT identical C. Operands come from core::generate_operands
// either way, chunk shapes are a pure function of (partition, mu) on a
// homogeneous fleet, and every chunk accumulates its k-steps in plan
// order from the master's pristine C window -- so neither lease churn
// nor mid-chunk worker death can change a single bit.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "core/algorithms.hpp"
#include "core/run.hpp"
#include "matrix/partition.hpp"
#include "platform/calibration.hpp"
#include "platform/platform.hpp"
#include "runtime/executor.hpp"
#include "runtime/serde.hpp"
#include "runtime/socket_util.hpp"
#include "service/admission.hpp"
#include "service/client.hpp"
#include "service/daemon.hpp"
#include "service/wire.hpp"

namespace hmxp::service {
namespace {

constexpr std::size_t kPayloadCeiling = 32 * 1024;

platform::Platform test_platform(int p = 4) {
  return platform::Platform::homogeneous(p, /*c=*/0.005, /*w=*/0.001,
                                         /*m=*/40);
}

DaemonConfig base_config(int p = 4) {
  DaemonConfig config;
  config.platform = test_platform(p);
  config.executor.verify = false;
  config.max_payload_doubles = kPayloadCeiling;
  config.calibration_cache = "off";  // tests never touch the user cache
  return config;
}

JobSpec small_spec(std::uint64_t seed = 7) {
  JobSpec spec;
  spec.n_a = 52;
  spec.n_ab = 40;
  spec.n_b = 60;
  spec.q = 8;
  spec.data_seed = seed;
  return spec;
}

/// More chunks than workers, so every leased worker computes.
JobSpec wide_spec(std::uint64_t seed = 11) {
  JobSpec spec;
  spec.n_a = 104;
  spec.n_ab = 40;
  spec.n_b = 120;
  spec.q = 8;
  spec.data_seed = seed;
  return spec;
}

/// The same job computed standalone: generate_operands + execute_online
/// over an owned transport. The ground truth service results must equal
/// bit for bit.
matrix::Matrix standalone_product(const JobSpec& spec,
                                  const platform::Platform& platform) {
  const matrix::Partition partition(spec.n_a, spec.n_ab, spec.n_b, spec.q);
  core::OperandSet operands =
      core::generate_operands(partition, spec.data_seed);
  const auto scheduler = core::make_scheduler(
      core::algorithm_from_name(spec.algorithm), platform, partition);
  runtime::ExecutorOptions options;
  options.verify = false;
  options.tolerate_faults = true;
  runtime::execute_online(*scheduler, platform, partition, operands.a,
                          operands.b, operands.c, options);
  return std::move(operands.c);
}

void expect_bitwise_equal(const matrix::Matrix& got,
                          const matrix::Matrix& want) {
  ASSERT_EQ(got.rows(), want.rows());
  ASSERT_EQ(got.cols(), want.cols());
  EXPECT_EQ(std::memcmp(got.data(), want.data(),
                        got.size() * sizeof(double)),
            0)
      << "service C diverged from the standalone product";
}

std::string temp_cache_path(const std::string& tag) {
  return testing::TempDir() + "hmxp_calib_" + tag + "_" +
         std::to_string(::getpid());
}

// ---- single job vs standalone ----------------------------------------------

TEST(Service, SingleJobMatchesStandaloneBitForBit) {
  Daemon daemon(base_config());
  const JobSpec spec = small_spec();
  const JobResult result = Client(daemon).run(spec);
  ASSERT_EQ(result.state, JobState::kCompleted) << result.error;
  EXPECT_GT(result.workers_used, 0);
  EXPECT_EQ(result.workers_failed, 0);
  EXPECT_GT(result.priced_throughput, 0.0);
  EXPECT_GT(result.chunks_processed, 0u);
  expect_bitwise_equal(result.c, standalone_product(spec, test_platform()));
  daemon.shutdown();
  EXPECT_EQ(daemon.fleet().pool().stats().outstanding, 0u);
}

TEST(Service, VerifiedJobReportsVerification) {
  Daemon daemon(base_config());
  JobSpec spec = small_spec(3);
  spec.verify = true;
  const JobResult result = Client(daemon).run(spec);
  ASSERT_EQ(result.state, JobState::kCompleted) << result.error;
  EXPECT_TRUE(result.verified);
  EXPECT_LE(result.max_abs_error, 1e-9);
}

TEST(Service, WaitConsumesTheResult) {
  Daemon daemon(base_config());
  const std::uint64_t id = daemon.submit(small_spec());
  const JobResult result = daemon.wait(id);
  ASSERT_EQ(result.state, JobState::kCompleted) << result.error;
  EXPECT_THROW(daemon.wait(id), std::exception);      // consumed
  EXPECT_THROW(daemon.wait(9999999), std::exception); // unknown id
  // The daemon dropped the consumed job's record: its memory does not
  // grow with the number of jobs it has served.
  EXPECT_THROW(daemon.state(id), std::exception);
}

// ---- admission --------------------------------------------------------------

TEST(Service, AdmissionRejectsBadSpecs) {
  Daemon daemon(base_config());
  Client client(daemon);

  JobSpec non_ft = small_spec();
  non_ft.algorithm = "ODDOML";
  JobResult result = client.run(non_ft);
  EXPECT_EQ(result.state, JobState::kRejected);
  EXPECT_NE(result.error.find("fault-tolerant"), std::string::npos);

  JobSpec unknown = small_spec();
  unknown.algorithm = "NO-SUCH-POLICY";
  result = client.run(unknown);
  EXPECT_EQ(result.state, JobState::kRejected);
  EXPECT_FALSE(result.error.empty());

  JobSpec oversized = small_spec();
  oversized.n_a = oversized.n_b = 1000;  // 1e6 doubles > ceiling
  result = client.run(oversized);
  EXPECT_EQ(result.state, JobState::kRejected);
  EXPECT_NE(result.error.find("ceiling"), std::string::npos);

  JobSpec degenerate = small_spec();
  degenerate.n_ab = 0;
  result = client.run(degenerate);
  EXPECT_EQ(result.state, JobState::kRejected);

  JobSpec weightless = small_spec();
  weightless.weight = 0.0;
  result = client.run(weightless);
  EXPECT_EQ(result.state, JobState::kRejected);

  // Rejections never consume queue slots or workers.
  const JobResult good = client.run(small_spec());
  EXPECT_EQ(good.state, JobState::kCompleted) << good.error;
}

TEST(Service, PriceJobRejectsMemoryOvercommit) {
  // The paper's own Table 2 counterexample: both workers saturate the
  // port exactly, and the buffer count worker 0 needs to SUSTAIN that
  // schedule grows with x -- far beyond the 12 blocks its mu = 2 memory
  // actually holds at x = 100.
  const platform::Platform platform(
      "table2", {{1.0, 2.0, 12, "near"}, {100.0, 200.0, 12, "far"}});
  const std::vector<double> drift(2, 1.0);
  const std::vector<char> alive(2, 1);
  JobSpec spec = small_spec();
  const AdmissionVerdict verdict =
      price_job(spec, platform, drift, alive, kPayloadCeiling);
  EXPECT_FALSE(verdict.admitted);
  EXPECT_NE(verdict.reason.find("overcommits"), std::string::npos);
}

TEST(Service, PriceJobChecksMemoryOnTheDeclaredPlatform) {
  // Drifts this large are what a descheduled thread worker reports on
  // tiny steps. They scale the throughput estimate, but memory does not
  // depend on speed: the job that fits at drift 1 still fits.
  const platform::Platform platform = test_platform(4);
  const std::vector<char> alive(4, 1);
  const AdmissionVerdict nominal = price_job(
      small_spec(), platform, std::vector<double>(4, 1.0), alive,
      kPayloadCeiling);
  ASSERT_TRUE(nominal.admitted) << nominal.reason;
  const AdmissionVerdict noisy = price_job(
      small_spec(), platform, {3.0, 30.0, 100.0, 1.0}, alive,
      kPayloadCeiling);
  EXPECT_TRUE(noisy.admitted) << noisy.reason;
  EXPECT_DOUBLE_EQ(noisy.throughput, 400.0);
  // Drift still prices: a fleet 100x slower sustains 100x less.
  const AdmissionVerdict slow = price_job(
      small_spec(), platform, std::vector<double>(4, 100.0), alive,
      kPayloadCeiling);
  EXPECT_TRUE(slow.admitted) << slow.reason;
  EXPECT_DOUBLE_EQ(slow.throughput, 40.0);
}

TEST(Service, PriceJobPricesDeadWorkersOut) {
  const platform::Platform platform = test_platform(2);
  JobSpec spec = small_spec();
  const std::vector<double> drift(2, 1.0);
  const AdmissionVerdict all_dead =
      price_job(spec, platform, drift, {0, 0}, kPayloadCeiling);
  EXPECT_FALSE(all_dead.admitted);
  const AdmissionVerdict one_alive =
      price_job(spec, platform, drift, {0, 1}, kPayloadCeiling);
  EXPECT_TRUE(one_alive.admitted) << one_alive.reason;
  EXPECT_GT(one_alive.throughput, 0.0);
}

TEST(Service, RejectsWhenQueueIsFull) {
  DaemonConfig config = base_config();
  config.max_concurrent_jobs = 1;
  config.queue_capacity = 1;
  Daemon daemon(config);
  std::vector<std::uint64_t> ids;
  ids.push_back(daemon.submit(wide_spec(1)));
  for (std::uint64_t seed = 2; seed <= 4; ++seed)
    ids.push_back(daemon.submit(small_spec(seed)));
  int completed = 0;
  int queue_full = 0;
  for (const std::uint64_t id : ids) {
    const JobResult result = daemon.wait(id);
    if (result.state == JobState::kCompleted) {
      ++completed;
    } else {
      ASSERT_EQ(result.state, JobState::kRejected) << result.error;
      EXPECT_NE(result.error.find("queue is full"), std::string::npos);
      ++queue_full;
    }
  }
  // The single runner can pop at most two jobs (one running, one
  // queued) before the rest of the burst arrives.
  EXPECT_GE(completed, 1);
  EXPECT_GE(queue_full, 2);
}

TEST(Service, SubmitAfterShutdownIsRejected) {
  Daemon daemon(base_config());
  EXPECT_EQ(Client(daemon).run(small_spec()).state, JobState::kCompleted);
  daemon.shutdown();
  const JobResult late = daemon.wait(daemon.submit(small_spec()));
  EXPECT_EQ(late.state, JobState::kRejected);
  EXPECT_NE(late.error.find("shutting down"), std::string::npos);
}

TEST(Service, DaemonChecksWorkerSlowdownsBeforeSpawning) {
  // The fleet-wide slowdowns are checked before the fleet spawns a
  // worker: each worker reads its own entry as it starts.
  DaemonConfig config = base_config();
  config.executor.compute_slowdown = {1, 2};  // 4 workers
  EXPECT_THROW(Daemon{config}, std::invalid_argument);
  config.executor.compute_slowdown = {1, 0, 1, 1};
  EXPECT_THROW(Daemon{config}, std::invalid_argument);
}

// ---- fair sharing -----------------------------------------------------------

TEST(Service, FairTargetsSplitByWeightWithFloor) {
  EXPECT_TRUE(fair_targets({}, 8).empty());
  EXPECT_EQ(fair_targets({1.0, 1.0}, 0), (std::vector<int>{0, 0}));
  EXPECT_EQ(fair_targets({2.0}, 5), (std::vector<int>{5}));
  EXPECT_EQ(fair_targets({1.0, 1.0}, 8), (std::vector<int>{4, 4}));
  // Floors come off the top, the surplus splits by weight: 1 each, then
  // 6 x {1/4, 3/4} = {1.5, 4.5}, remainders tie and index 0 wins.
  EXPECT_EQ(fair_targets({1.0, 3.0}, 8), (std::vector<int>{3, 5}));
  EXPECT_EQ(fair_targets({1.0, 3.0}, 9), (std::vector<int>{3, 6}));
  // Largest remainder, index tie-break.
  EXPECT_EQ(fair_targets({1.0, 1.0}, 5), (std::vector<int>{3, 2}));
  // Every job gets 1 while supply lasts, in registration order; jobs
  // beyond the supply wait at 0 and NO surplus is split.
  EXPECT_EQ(fair_targets({1.0, 1.0, 1.0}, 2), (std::vector<int>{1, 1, 0}));
  // Weight cannot starve a lighter job below its floor.
  EXPECT_EQ(fair_targets({100.0, 1.0}, 4), (std::vector<int>{3, 1}));
  int total = 0;
  for (const int t : fair_targets({0.7, 2.9, 1.4}, 11)) total += t;
  EXPECT_EQ(total, 11);
}

// ---- concurrency ------------------------------------------------------------

TEST(Service, EightConcurrentClientsAllBitForBit) {
  DaemonConfig config = base_config();
  config.max_concurrent_jobs = 8;
  config.queue_capacity = 64;
  Daemon daemon(config);
  const matrix::Matrix references[2] = {
      standalone_product(small_spec(100), test_platform()),
      standalone_product(small_spec(101), test_platform()),
  };
  std::vector<std::thread> clients;
  std::atomic<int> mismatches{0};
  std::atomic<int> failures{0};
  for (int t = 0; t < 8; ++t) {
    clients.emplace_back([&daemon, &references, &mismatches, &failures, t] {
      Client client(daemon);
      for (int j = 0; j < 2; ++j) {
        const std::uint64_t seed = 100 + static_cast<std::uint64_t>(j);
        const JobResult result = client.run(small_spec(seed));
        if (result.state != JobState::kCompleted) {
          ++failures;
          continue;
        }
        const matrix::Matrix& want = references[j];
        if (result.c.rows() != want.rows() ||
            result.c.cols() != want.cols() ||
            std::memcmp(result.c.data(), want.data(),
                        want.size() * sizeof(double)) != 0)
          ++mismatches;
      }
      (void)t;
    });
  }
  for (std::thread& client : clients) client.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(daemon.jobs_completed(), 16u);
  daemon.shutdown();
  // Quiescent fleet: every payload buffer came home.
  EXPECT_EQ(daemon.fleet().pool().stats().outstanding, 0u);
  EXPECT_EQ(daemon.fleet().transport_stats().arena_leaked_slots, 0u);
}

// ---- warm pools across jobs -------------------------------------------------

TEST(Service, BufferPoolStaysWarmAcrossJobs) {
  // Six identical jobs on one fleet. The pool's heap growth is a
  // warm-up constant set by the worst-case in-flight buffer population
  // (workers x bounded-inbox messages x payloads per message) -- it
  // must NOT scale with the job count, while acquires do. Exact zeros
  // per warm job would overclaim: a warm job still allocates when
  // thread timing pushes the in-flight population past every earlier
  // peak, so the invariant is the bound, not the zero.
  Daemon daemon(base_config());
  Client client(daemon);
  runtime::BufferPool::Stats first_delta;
  std::size_t warm_allocations = 0;
  std::size_t warm_reuses = 0;
  for (std::uint64_t seed = 21; seed <= 26; ++seed) {
    const JobResult result = client.run(small_spec(seed));
    ASSERT_EQ(result.state, JobState::kCompleted) << result.error;
    // Delta conservation: every checkout was an allocation or a reuse.
    EXPECT_EQ(result.pool_delta.allocations + result.pool_delta.reuses,
              result.pool_delta.acquires);
    if (seed == 21) {
      first_delta = result.pool_delta;
    } else {
      warm_allocations += result.pool_delta.allocations;
      warm_reuses += result.pool_delta.reuses;
    }
  }
  EXPECT_GT(first_delta.allocations, 0u);  // the cold pool warms up...
  EXPECT_GT(first_delta.reuses, 0u);
  // ...then recycling carries the service: five warm jobs reuse far
  // more than they grow.
  EXPECT_GT(warm_reuses, 8 * std::max<std::size_t>(warm_allocations, 1));
  const runtime::BufferPool::Stats total = daemon.fleet().pool().stats();
  EXPECT_LE(total.allocations, 64u);  // in-flight bound, not 6x a job
  EXPECT_GE(total.reuses + 64u, total.acquires);
  daemon.shutdown();
  EXPECT_EQ(daemon.fleet().pool().stats().outstanding, 0u);
}

// ---- worker death -----------------------------------------------------------

TEST(Service, WorkerDeathFailsNoJobAndShrinksFleet) {
  DaemonConfig config = base_config();
  // Kill worker 2 the first time it is about to compute a step; the
  // fleet-wide hook stays armed for the daemon's whole life, so the
  // one-shot latch matters.
  auto killed = std::make_shared<std::atomic<bool>>(false);
  config.executor.fault_hook = [killed](int worker, std::size_t) {
    if (worker == 2 && !killed->exchange(true))
      throw std::runtime_error("injected worker death");
  };
  Daemon daemon(config);
  Client client(daemon);

  const JobSpec spec = wide_spec(31);
  const JobResult hit = client.run(spec);
  ASSERT_EQ(hit.state, JobState::kCompleted) << hit.error;
  EXPECT_GE(hit.workers_failed, 1);
  EXPECT_EQ(daemon.alive_workers(), 3);
  // FT re-completed the lost chunks: the product is still exact.
  expect_bitwise_equal(hit.c, standalone_product(spec, test_platform()));

  // The dead worker is never leased again; later jobs are untouched.
  const JobResult after = client.run(spec);
  ASSERT_EQ(after.state, JobState::kCompleted) << after.error;
  EXPECT_EQ(after.workers_failed, 0);
  EXPECT_LE(after.workers_used, 3);
  expect_bitwise_equal(after.c, standalone_product(spec, test_platform()));
}

// ---- calibration persistence ------------------------------------------------

TEST(Service, CalibrationRoundTripsThroughTheCacheFile) {
  const std::string path = temp_cache_path("roundtrip");
  std::vector<platform::SpeedEstimate> speeds(3);
  for (std::size_t i = 0; i < speeds.size(); ++i) {
    speeds[i].observe(0.5 + static_cast<double>(i), 0.25);
    speeds[i].observe(0.75 + static_cast<double>(i), 0.25);
    speeds[i].observe(0.8 + static_cast<double>(i), 0.25);
  }
  ASSERT_TRUE(platform::store_calibration(path, "fleet-a|3", speeds));
  const auto loaded = platform::load_calibration(path, "fleet-a|3", 3);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(*loaded, speeds);

  // Wrong key, wrong count: a miss, never a crash.
  EXPECT_FALSE(platform::load_calibration(path, "fleet-b|3", 3).has_value());
  EXPECT_FALSE(platform::load_calibration(path, "fleet-a|3", 4).has_value());

  // A second fleet's entry coexists; the first survives the rewrite.
  std::vector<platform::SpeedEstimate> other(2);
  other[0].observe(1.5, 0.25);
  ASSERT_TRUE(platform::store_calibration(path, "fleet-b|2", other));
  EXPECT_TRUE(platform::load_calibration(path, "fleet-a|3", 3).has_value());
  EXPECT_EQ(*platform::load_calibration(path, "fleet-b|2", 2), other);

  // Corruption reads as a cold start.
  {
    std::FILE* file = std::fopen(path.c_str(), "w");
    ASSERT_NE(file, nullptr);
    std::fputs("hmxp-calibration-cache-v1\nfleet-a|3\tgarbage\n", file);
    std::fclose(file);
  }
  EXPECT_FALSE(platform::load_calibration(path, "fleet-a|3", 3).has_value());
  ::unlink(path.c_str());
}

TEST(Service, DaemonPersistsCalibrationAcrossRestarts) {
  const std::string path = temp_cache_path("daemon");
  DaemonConfig config = base_config();
  config.calibration_cache = path;
  config.fleet_label = "persist-test";
  {
    Daemon daemon(config);
    ASSERT_EQ(Client(daemon).run(wide_spec(41)).state, JobState::kCompleted);
    daemon.shutdown();  // persists at the quiescent point
  }
  // The restarted daemon reheats what the first one learned.
  Daemon revived(config);
  std::size_t observations = 0;
  for (const platform::SpeedEstimate& speed : revived.fleet().speeds())
    observations += speed.observations;
  EXPECT_GT(observations, 0u);
  // And still serves jobs correctly on the reheated estimates.
  const JobSpec spec = small_spec(42);
  const JobResult result = Client(revived).run(spec);
  ASSERT_EQ(result.state, JobState::kCompleted) << result.error;
  expect_bitwise_equal(result.c, standalone_product(spec, test_platform()));
  // Shut down before the unlink: shutdown() persists the cache, so the
  // destructor's implied shutdown would write the file back.
  revived.shutdown();
  ::unlink(path.c_str());
  EXPECT_NE(::access(path.c_str(), F_OK), 0) << path << " outlived the test";
}

// ---- TCP front-end ----------------------------------------------------------

TEST(Service, TcpClientRoundTripsJobsAndErrors) {
  Daemon daemon(base_config());
  const std::uint16_t port = daemon.serve_tcp(0);
  ASSERT_GT(port, 0);
  TcpClient client(port, kPayloadCeiling);

  const JobSpec spec = small_spec(51);
  const JobResult result = client.run(spec);
  ASSERT_EQ(result.state, JobState::kCompleted) << result.error;
  expect_bitwise_equal(result.c, standalone_product(spec, test_platform()));

  // The connection is reusable, and rejections travel with reasons.
  JobSpec bad = small_spec();
  bad.algorithm = "ODDOML";
  const JobResult rejected = client.run(bad);
  EXPECT_EQ(rejected.state, JobState::kRejected);
  EXPECT_NE(rejected.error.find("fault-tolerant"), std::string::npos);
  EXPECT_EQ(rejected.c.size(), 0u);
}

TEST(Service, TcpHandshakeRefusesWrongVersion) {
  Daemon daemon(base_config());
  const std::uint16_t port = daemon.serve_tcp(0);
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  std::uint8_t hello[8];
  std::memcpy(hello, &runtime::serde::kProtocolMagic, 4);
  const std::uint32_t wrong_version = wire::kServiceVersion + 1;
  std::memcpy(hello + 4, &wrong_version, 4);
  runtime::write_exact(fd, hello, sizeof(hello));
  std::uint8_t reply[9] = {};
  ASSERT_TRUE(runtime::read_exact(fd, reply, sizeof(reply), /*start=*/true));
  EXPECT_EQ(reply[8], 0);  // refused
  ::close(fd);
}

// ---- wire codec -------------------------------------------------------------

TEST(Service, WireCodecRoundTripsAndRejectsTruncation) {
  JobSpec spec;
  spec.algorithm = "FT-BMM";
  spec.n_a = 12;
  spec.n_ab = 34;
  spec.n_b = 56;
  spec.q = 7;
  spec.data_seed = 0xDEADBEEFu;
  spec.weight = 2.5;
  spec.verify = true;
  wire::ByteBuffer buffer;
  wire::encode_job_spec(spec, buffer);
  const auto decoded = wire::decode_job_spec(buffer);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->algorithm, spec.algorithm);
  EXPECT_EQ(decoded->n_a, spec.n_a);
  EXPECT_EQ(decoded->n_ab, spec.n_ab);
  EXPECT_EQ(decoded->n_b, spec.n_b);
  EXPECT_EQ(decoded->q, spec.q);
  EXPECT_EQ(decoded->data_seed, spec.data_seed);
  EXPECT_EQ(decoded->weight, spec.weight);
  EXPECT_TRUE(decoded->verify);

  // Any truncation is a clean decode failure, never a read overrun.
  for (std::size_t cut = 0; cut < buffer.size(); ++cut) {
    const wire::ByteBuffer truncated(buffer.begin(),
                                     buffer.begin() +
                                         static_cast<std::ptrdiff_t>(cut));
    EXPECT_FALSE(wire::decode_job_spec(truncated).has_value());
  }

  JobResult result;
  result.state = JobState::kCompleted;
  result.wall_seconds = 1.5;
  result.chunks_processed = 9;
  result.updates_performed = 720;
  result.workers_used = 3;
  result.workers_failed = 1;
  result.verified = true;
  result.max_abs_error = 1e-12;
  result.priced_throughput = 123.25;
  result.c = matrix::Matrix(3, 5, 0.0);
  for (std::size_t i = 0; i < result.c.size(); ++i)
    result.c.data()[i] = static_cast<double>(i) * 0.5;
  wire::ByteBuffer out;
  wire::encode_job_result(result, out);
  const auto round = wire::decode_job_result(out);
  ASSERT_TRUE(round.has_value());
  EXPECT_EQ(round->state, JobState::kCompleted);
  EXPECT_EQ(round->chunks_processed, 9u);
  EXPECT_EQ(round->updates_performed, 720u);
  EXPECT_EQ(round->workers_used, 3);
  EXPECT_EQ(round->workers_failed, 1);
  EXPECT_TRUE(round->verified);
  EXPECT_EQ(round->priced_throughput, 123.25);
  expect_bitwise_equal(round->c, result.c);
  out.pop_back();
  EXPECT_FALSE(wire::decode_job_result(out).has_value());
}

// ---- shm transport: arena accounting and long frames across jobs ------------

TEST(Service, ShmFleetLeaksNoArenaSlotsAcrossJobs) {
#if !defined(HMXP_TSAN)
#if defined(__SANITIZE_THREAD__)
#define HMXP_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define HMXP_TSAN 1
#endif
#endif
#endif
#if defined(HMXP_TSAN)
  GTEST_SKIP() << "forked shm workers are out of TSan's scope";
#endif
  DaemonConfig config = base_config(3);
  config.executor.transport = runtime::TransportKind::kShm;
  Daemon daemon(config);
  Client client(daemon);
  for (std::uint64_t seed = 61; seed <= 63; ++seed) {
    const JobSpec spec = small_spec(seed);
    const JobResult result = client.run(spec);
    ASSERT_EQ(result.state, JobState::kCompleted) << result.error;
    expect_bitwise_equal(result.c, standalone_product(spec, test_platform(3)));
  }
  daemon.shutdown();
  const runtime::TransportStats stats = daemon.fleet().transport_stats();
  EXPECT_GT(stats.arena_slots, 0u);
  EXPECT_EQ(stats.arena_leaked_slots, 0u)
      << "shared-arena slots still held after three jobs drained";
  EXPECT_EQ(daemon.fleet().pool().stats().outstanding, 0u);
}

TEST(Service, ShmFleetServesALongInnerDimensionAndKeepsItsWorkers) {
#if defined(HMXP_TSAN)
  GTEST_SKIP() << "forked shm workers are out of TSan's scope";
#endif
  // 407 k-steps: each result frame carries a plan step and a step time
  // per k-step, more than a 16 KiB shm ring holds. It must stream
  // through the ring like any frame -- not kill the workers that send
  // it and leave the daemon nothing to serve the next job with.
  DaemonConfig config = base_config(4);
  config.platform = platform::Platform::homogeneous(4, 1.0, 1.0, 400);
  config.executor.transport = runtime::TransportKind::kShm;
  config.max_payload_doubles = 64 * 4096;
  Daemon daemon(config);
  Client client(daemon);

  JobSpec long_spec;
  long_spec.n_a = 16;
  long_spec.n_ab = 3256;
  long_spec.n_b = 16;
  long_spec.q = 8;
  long_spec.data_seed = 81;
  const JobResult long_result = client.run(long_spec);
  ASSERT_EQ(long_result.state, JobState::kCompleted) << long_result.error;
  expect_bitwise_equal(long_result.c,
                       standalone_product(long_spec, config.platform));
  EXPECT_EQ(daemon.alive_workers(), 4);

  const JobSpec spec = small_spec(83);
  const JobResult small = client.run(spec);
  ASSERT_EQ(small.state, JobState::kCompleted) << small.error;
  expect_bitwise_equal(small.c, standalone_product(spec, config.platform));
  EXPECT_EQ(daemon.alive_workers(), 4);
  daemon.shutdown();
  EXPECT_EQ(daemon.fleet().transport_stats().arena_leaked_slots, 0u);
}

}  // namespace
}  // namespace hmxp::service
