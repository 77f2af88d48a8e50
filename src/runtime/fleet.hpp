// A long-lived worker fleet: the transport, buffer pool and per-worker
// calibration state of MANY runs, owned once and reused across jobs.
//
// Today's execute_online spawns its workers, warms its pools and
// calibrates its speeds per run, then throws all of that away. A Fleet
// flips the ownership: the transport (any of the four kinds) is created
// ONCE, worker_main's job-agnostic loop keeps every worker alive
// between jobs, the BufferPool (and the shm transport's SharedArena)
// stay warm, and the platform::SpeedEstimate vector keeps accumulating
// observations -- so the second job starts where the first left off.
//
// Concurrency model: multiple jobs run at the same time, each as its
// own master loop (executor.cpp in fleet mode) driving a DISJOINT set
// of leased workers. A worker's endpoint is only ever touched by the
// job currently holding its lease; lease hand-offs synchronize through
// the lease manager's mutex (service/daemon.cpp), and per-endpoint
// transport-stats slots keep the counters race-free. The fleet itself
// only tracks which workers are still alive: a worker that really died
// (thread exception, SIGKILL'd child, dropped connection) is reported
// by the job that held it and never leased again.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <memory>
#include <vector>

#include "platform/calibration.hpp"
#include "platform/platform.hpp"
#include "runtime/buffer_pool.hpp"
#include "runtime/executor.hpp"
#include "runtime/transport.hpp"

namespace hmxp::runtime {

class Fleet {
 public:
  /// Spawns the fleet's workers immediately. `options` is the
  /// fleet-wide executor configuration (transport kind, fault hook and
  /// schedules, calibration alpha); it is copied and kept alive for
  /// the fleet's whole lifetime because worker contexts point into it.
  /// `max_payload_doubles` is the largest single payload ANY future job
  /// may ship (admission enforces it): the shm arena and the
  /// serializing transports' frame-length ceilings are sized from it
  /// once, here.
  Fleet(platform::Platform platform, ExecutorOptions options,
        std::size_t max_payload_doubles);
  ~Fleet();
  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  int size() const { return platform_.size(); }
  const platform::Platform& platform() const { return platform_; }
  const ExecutorOptions& options() const { return options_; }
  std::size_t max_payload_doubles() const { return max_payload_doubles_; }
  std::chrono::steady_clock::time_point spawn_time() const {
    return spawn_time_;
  }

  Transport& transport() { return *transport_; }
  BufferPool& pool() { return pool_; }

  /// The fleet's persistent per-worker speed estimates. A job observes
  /// only the workers it holds a lease on, so concurrent jobs never
  /// write the same estimate; lease hand-offs order the accesses.
  std::vector<platform::SpeedEstimate>& speeds() { return speeds_; }

  /// Lock-free drift snapshot for readers OUTSIDE the lease protocol
  /// (the admission controller pricing a job while other jobs run, a
  /// job reporting on workers it no longer holds). Published by the
  /// leasing job as its lease on the worker ends (publish_drift); 1.0
  /// until a worker has been observed.
  double drift(int worker) const;
  void publish_drift(int worker, double drift);

  /// Permanent-death registry: a job that lost worker `w` for real
  /// reports it here; the lease manager stops offering it. (A fleet
  /// has no per-job re-admission: a TCP worker redialing into a
  /// long-lived daemon would need daemon-level re-admission, which is
  /// out of scope -- the fleet just shrinks.)
  void mark_dead(int worker);
  bool alive(int worker) const;
  int alive_count() const;

  /// Summed per-endpoint data-plane counters. Only meaningful at a
  /// quiescent point: call between jobs or after shutdown.
  TransportStats transport_stats() const { return transport_->stats(); }

  /// Stops and reaps every worker. Idempotent; the destructor calls it.
  void shutdown() noexcept;

 private:
  platform::Platform platform_;
  ExecutorOptions options_;  // worker contexts point into this copy
  std::size_t max_payload_doubles_;
  std::chrono::steady_clock::time_point spawn_time_;
  BufferPool pool_;  // outlives the transport's workers (declared first)
  std::unique_ptr<Transport> transport_;
  std::vector<platform::SpeedEstimate> speeds_;
  std::vector<std::unique_ptr<std::atomic<double>>> drift_;
  std::vector<std::unique_ptr<std::atomic<bool>>> dead_;
};

}  // namespace hmxp::runtime
