// The persistent multi-job service: a long-lived daemon owning ONE
// worker fleet (runtime/fleet.hpp) and serving a queue of
// matrix-product jobs from many concurrent clients.
//
// What stays warm across jobs -- the whole point of the daemon:
//  * the workers themselves: worker_main's job-agnostic loop serves
//    successive jobs over one transport, no spawn/teardown per job;
//  * the BufferPool (and the shm transport's SharedArena): after
//    warm-up, jobs recycle payload buffers instead of allocating --
//    total heap growth is bounded by the worst-case in-flight buffer
//    population, never by the number of jobs served;
//  * per-worker calibration: SpeedEstimates accumulate across jobs and
//    persist across daemon restarts (platform/calibration.hpp cache);
//  * the kernel configuration: captured once, at fleet spawn, and
//    shared by every job.
//
// Concurrency: up to max_concurrent_jobs run at once, each as its own
// master loop over a DISJOINT lease of workers. The lease manager in
// this class is the single synchronization point: weighted fair-share
// targets (admission.hpp) decide who holds how many workers, grants
// and releases happen at chunk boundaries, and a finished job's
// workers flow to the next job's prologue while the finisher's tail
// still drains (pipelined epilogue/prologue -- workers never idle
// between jobs while work is queued).
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "platform/platform.hpp"
#include "runtime/executor.hpp"
#include "runtime/fleet.hpp"
#include "service/job.hpp"

namespace hmxp::service {

struct DaemonConfig {
  platform::Platform platform;
  /// Fleet-wide executor configuration (transport kind, fault hooks,
  /// calibration alpha). The daemon forces tolerate_faults on: a
  /// worker death degrades the fleet instead of failing the job.
  runtime::ExecutorOptions executor;
  /// Largest single payload any admitted job may ship; sizes the shm
  /// arena and frame ceilings once, at fleet spawn.
  std::size_t max_payload_doubles = 0;
  /// Jobs running concurrently (each is one runner thread + mirror).
  std::size_t max_concurrent_jobs = 4;
  /// Admitted-but-not-running jobs the queue holds before rejecting.
  std::size_t queue_capacity = 64;
  /// Keys the persistent calibration cache (with CPU model + size).
  std::string fleet_label = "service";
  /// Calibration cache file override: nullopt = default resolution
  /// chain (HMXP_CALIB_CACHE env, then
  /// $XDG_CACHE_HOME/hmxp/calibration or ~/.cache/hmxp/calibration),
  /// "off" = no persistence. Tests point this at a temp file.
  std::optional<std::string> calibration_cache;
};

class Daemon {
 public:
  /// Spawns the fleet and the runner threads; loads persisted
  /// calibration if the cache holds a matching entry.
  explicit Daemon(DaemonConfig config);
  /// Implies shutdown() (drains the queue, persists calibration).
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Admits or rejects `spec` (admission runs HERE, synchronously) and
  /// returns the job id either way -- a rejected job is immediately
  /// terminal with state kRejected and the reason in its result.
  /// Thread-safe; many clients submit concurrently.
  std::uint64_t submit(const JobSpec& spec);

  /// Blocks until the job is terminal and returns its result (moving
  /// the product matrix out -- wait() consumes the job and the daemon
  /// drops its record, so a second wait, or a state() query, on the
  /// same id throws).
  JobResult wait(std::uint64_t job_id);

  /// State of a job that wait() has not consumed yet.
  JobState state(std::uint64_t job_id) const;

  /// Serves the wire protocol (service/wire.hpp) on loopback TCP.
  /// `port` 0 binds an ephemeral port; the bound port is returned.
  std::uint16_t serve_tcp(std::uint16_t port = 0);
  std::uint16_t tcp_port() const { return tcp_port_; }

  int alive_workers() const { return fleet_->alive_count(); }
  runtime::Fleet& fleet() { return *fleet_; }
  std::size_t jobs_completed() const;

  /// Stops accepting, drains every queued and running job, persists
  /// calibration, and shuts the fleet down. Idempotent.
  void shutdown();

 private:
  /// Kept from submit() until wait() hands the result back.
  struct JobRecord {
    JobSpec spec;
    JobState state = JobState::kQueued;
    JobResult result;
  };

  /// One RUNNING job's slice of the lease manager's state. Lives on the
  /// runner's stack; registered/unregistered under lease_mutex_.
  struct LeaseAccount {
    std::uint64_t job_id = 0;
    double weight = 1.0;
    std::vector<int> backlog;  // granted, not yet polled by the master
    int held = 0;              // granted workers the job still owns
  };

  void runner_loop();
  void run_job(std::uint64_t job_id);
  void tcp_accept_loop();
  void tcp_session(int fd);

  // Lease manager (all under lease_mutex_).
  void register_account(LeaseAccount& account);
  void unregister_account(LeaseAccount& account);
  void rebalance_locked();
  int target_for_locked(const LeaseAccount& account) const;

  DaemonConfig config_;
  std::unique_ptr<runtime::Fleet> fleet_;
  std::string calibration_path_;
  std::string calibration_key_;

  // Job registry + queue.
  mutable std::mutex jobs_mutex_;
  std::condition_variable jobs_cv_;   // job state transitions
  std::condition_variable queue_cv_;  // queue pushes / stop
  std::map<std::uint64_t, JobRecord> jobs_;
  std::deque<std::uint64_t> queue_;
  std::uint64_t next_job_id_ = 1;
  std::size_t running_ = 0;
  std::size_t completed_ = 0;
  bool accepting_ = true;
  bool stopping_ = false;

  // Lease manager.
  std::mutex lease_mutex_;
  std::condition_variable lease_cv_;
  std::vector<int> free_workers_;         // alive, unleased
  std::vector<LeaseAccount*> accounts_;   // running jobs, registration order

  std::vector<std::thread> runners_;

  // TCP front-end.
  int listen_fd_ = -1;
  std::uint16_t tcp_port_ = 0;
  std::thread acceptor_;
  std::mutex sessions_mutex_;
  std::vector<std::thread> sessions_;
  std::vector<int> session_fds_;

  std::mutex shutdown_mutex_;
  bool shut_down_ = false;
};

}  // namespace hmxp::service
