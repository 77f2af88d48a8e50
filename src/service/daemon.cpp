#include "service/daemon.hpp"

#include <algorithm>
#include <cstring>
#include <utility>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "core/algorithms.hpp"
#include "core/run.hpp"
#include "matrix/partition.hpp"
#include "platform/calibration.hpp"
#include "runtime/socket_util.hpp"
#include "service/admission.hpp"
#include "service/wire.hpp"
#include "util/check.hpp"
#include "util/strings.hpp"

namespace hmxp::service {

namespace {

bool terminal(JobState state) {
  return state == JobState::kCompleted || state == JobState::kFailed ||
         state == JobState::kRejected;
}

}  // namespace

Daemon::Daemon(DaemonConfig config) : config_(std::move(config)) {
  HMXP_REQUIRE(config_.max_concurrent_jobs > 0,
               "daemon needs at least one runner");
  HMXP_REQUIRE(config_.queue_capacity > 0,
               "daemon needs a positive queue capacity");
  fleet_ = std::make_unique<runtime::Fleet>(
      config_.platform, config_.executor, config_.max_payload_doubles);
  const auto size = static_cast<std::size_t>(fleet_->size());
  free_workers_.reserve(size);
  for (std::size_t w = 0; w < size; ++w)
    free_workers_.push_back(static_cast<int>(w));

  // Reheat calibration: a restarted daemon starts where the previous
  // one left off, on matching silicon and fleet shape only. A missing
  // or corrupt cache is simply a cold start.
  if (config_.calibration_cache.has_value())
    calibration_path_ =
        util::to_lower(*config_.calibration_cache) == "off"
            ? std::string()
            : *config_.calibration_cache;
  else
    calibration_path_ = platform::calibration_cache_path();
  calibration_key_ =
      platform::calibration_cache_key(config_.fleet_label, size);
  if (const auto speeds = platform::load_calibration(
          calibration_path_, calibration_key_, size)) {
    fleet_->speeds() = *speeds;
    for (std::size_t w = 0; w < size; ++w)
      fleet_->publish_drift(static_cast<int>(w), (*speeds)[w].drift());
  }

  runners_.reserve(config_.max_concurrent_jobs);
  for (std::size_t i = 0; i < config_.max_concurrent_jobs; ++i)
    runners_.emplace_back([this] { runner_loop(); });
}

Daemon::~Daemon() { shutdown(); }

std::uint64_t Daemon::submit(const JobSpec& spec) {
  // Price OUTSIDE the registry lock: admission reads only the fleet's
  // lock-free drift/death snapshots and pure model code.
  const auto size = static_cast<std::size_t>(fleet_->size());
  std::vector<double> drift(size, 1.0);
  std::vector<char> alive(size, 1);
  for (std::size_t w = 0; w < size; ++w) {
    drift[w] = fleet_->drift(static_cast<int>(w));
    alive[w] = fleet_->alive(static_cast<int>(w)) ? 1 : 0;
  }
  const AdmissionVerdict verdict =
      price_job(spec, fleet_->platform(), drift, alive,
                config_.max_payload_doubles);

  std::lock_guard<std::mutex> lock(jobs_mutex_);
  const std::uint64_t id = next_job_id_++;
  JobRecord& record = jobs_[id];
  record.spec = spec;
  std::string rejection;
  if (!accepting_)
    rejection = "daemon is shutting down";
  else if (!verdict.admitted)
    rejection = verdict.reason;
  else if (queue_.size() >= config_.queue_capacity)
    rejection = "job queue is full (" +
                std::to_string(config_.queue_capacity) + " jobs)";
  if (!rejection.empty()) {
    record.state = JobState::kRejected;
    record.result.state = JobState::kRejected;
    record.result.error = std::move(rejection);
    jobs_cv_.notify_all();
    return id;
  }
  record.state = JobState::kQueued;
  record.result.priced_throughput = verdict.throughput;
  queue_.push_back(id);
  queue_cv_.notify_one();
  return id;
}

JobResult Daemon::wait(std::uint64_t job_id) {
  std::unique_lock<std::mutex> lock(jobs_mutex_);
  const auto it = jobs_.find(job_id);
  HMXP_REQUIRE(it != jobs_.end(), "unknown job id");
  jobs_cv_.wait(lock, [&] { return terminal(it->second.state); });
  HMXP_REQUIRE(!it->second.consumed, "job result already consumed");
  it->second.consumed = true;
  JobResult result = std::move(it->second.result);
  result.state = it->second.state;
  return result;
}

JobState Daemon::state(std::uint64_t job_id) const {
  std::lock_guard<std::mutex> lock(jobs_mutex_);
  const auto it = jobs_.find(job_id);
  HMXP_REQUIRE(it != jobs_.end(), "unknown job id");
  return it->second.state;
}

std::size_t Daemon::jobs_completed() const {
  std::lock_guard<std::mutex> lock(jobs_mutex_);
  return completed_;
}

void Daemon::runner_loop() {
  while (true) {
    std::uint64_t id = 0;
    {
      std::unique_lock<std::mutex> lock(jobs_mutex_);
      queue_cv_.wait(lock, [&] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and drained
      id = queue_.front();
      queue_.pop_front();
      jobs_[id].state = JobState::kRunning;
      ++running_;
    }
    run_job(id);
    {
      std::lock_guard<std::mutex> lock(jobs_mutex_);
      --running_;
      jobs_cv_.notify_all();
    }
  }
}

void Daemon::run_job(std::uint64_t job_id) {
  JobSpec spec;
  JobResult result;
  {
    std::lock_guard<std::mutex> lock(jobs_mutex_);
    spec = jobs_[job_id].spec;
    // Carry admission's estimate through to the final result.
    result.priced_throughput = jobs_[job_id].result.priced_throughput;
  }

  LeaseAccount account;
  account.job_id = job_id;
  account.weight = spec.weight;
  bool registered = false;
  try {
    const matrix::Partition partition(spec.n_a, spec.n_ab, spec.n_b, spec.q);
    // Deterministic operands: bit-identical to a standalone
    // run_algorithm_online of the same (partition, seed) pair.
    core::OperandSet operands =
        core::generate_operands(partition, spec.data_seed);
    const std::unique_ptr<sim::Scheduler> scheduler = core::make_scheduler(
        core::algorithm_from_name(spec.algorithm), fleet_->platform(),
        partition);

    runtime::LeaseHooks hooks;
    hooks.poll_grants = [this, &account] {
      std::lock_guard<std::mutex> lock(lease_mutex_);
      return std::exchange(account.backlog, {});
    };
    hooks.wait_grant = [this, &account] {
      std::unique_lock<std::mutex> lock(lease_mutex_);
      rebalance_locked();
      lease_cv_.wait(lock, [&] {
        return !account.backlog.empty() || fleet_->alive_count() == 0;
      });
      return std::exchange(account.backlog, {});
    };
    hooks.target = [this, &account] {
      std::lock_guard<std::mutex> lock(lease_mutex_);
      return target_for_locked(account);
    };
    hooks.release = [this, &account](int worker) {
      std::lock_guard<std::mutex> lock(lease_mutex_);
      --account.held;
      free_workers_.push_back(worker);
      rebalance_locked();
    };
    hooks.worker_dead = [this, &account](int) {
      std::lock_guard<std::mutex> lock(lease_mutex_);
      --account.held;
      rebalance_locked();
      // A waiting job's "can a grant ever come" condition may have
      // flipped; wake everyone to re-check.
      lease_cv_.notify_all();
    };

    register_account(account);
    registered = true;
    runtime::FleetJobOptions job;
    job.verify = spec.verify;
    const runtime::ExecutorReport report =
        runtime::execute_on_fleet(*scheduler, *fleet_, partition, operands.a,
                                  operands.b, operands.c,
                                  /*initial_lease=*/{}, hooks, job);
    unregister_account(account);
    registered = false;

    result.state = JobState::kCompleted;
    result.c = std::move(operands.c);
    result.wall_seconds = report.wall_seconds;
    result.chunks_processed = report.chunks_processed;
    result.updates_performed = report.updates_performed;
    result.workers_used = report.fleet_workers_used;
    result.workers_failed = report.workers_failed;
    result.verified = report.verified;
    result.max_abs_error = report.max_abs_error;
    result.pool_delta = report.buffer_pool_delta;
  } catch (const std::exception& error) {
    if (registered) unregister_account(account);
    result.state = JobState::kFailed;
    result.error = error.what();
  }

  std::lock_guard<std::mutex> lock(jobs_mutex_);
  JobRecord& record = jobs_[job_id];
  record.state = result.state;
  record.result = std::move(result);
  if (record.state == JobState::kCompleted) ++completed_;
  jobs_cv_.notify_all();
}

// ----- lease manager ---------------------------------------------------------

void Daemon::register_account(LeaseAccount& account) {
  std::lock_guard<std::mutex> lock(lease_mutex_);
  accounts_.push_back(&account);
  rebalance_locked();
}

void Daemon::unregister_account(LeaseAccount& account) {
  std::lock_guard<std::mutex> lock(lease_mutex_);
  accounts_.erase(std::remove(accounts_.begin(), accounts_.end(), &account),
                  accounts_.end());
  // Workers granted but never polled flow straight back to the pool.
  for (const int worker : account.backlog) free_workers_.push_back(worker);
  account.backlog.clear();
  rebalance_locked();
  lease_cv_.notify_all();
}

int Daemon::target_for_locked(const LeaseAccount& account) const {
  std::vector<double> weights;
  weights.reserve(accounts_.size());
  int leasable = static_cast<int>(free_workers_.size());
  std::size_t index = accounts_.size();
  for (std::size_t i = 0; i < accounts_.size(); ++i) {
    weights.push_back(accounts_[i]->weight);
    leasable += accounts_[i]->held;
    if (accounts_[i] == &account) index = i;
  }
  if (index == accounts_.size()) return 0;  // not registered (shutting down)
  return fair_targets(weights, leasable)[index];
}

void Daemon::rebalance_locked() {
  if (accounts_.empty() || free_workers_.empty()) return;
  std::vector<double> weights;
  weights.reserve(accounts_.size());
  int leasable = static_cast<int>(free_workers_.size());
  for (const LeaseAccount* account : accounts_) {
    weights.push_back(account->weight);
    leasable += account->held;
  }
  const std::vector<int> targets = fair_targets(weights, leasable);
  bool granted = false;
  while (!free_workers_.empty()) {
    // Grant to the largest deficit; a job holding NOTHING always wins
    // over one that merely wants more (starvation beats imbalance).
    std::size_t best = accounts_.size();
    int best_deficit = 0;
    bool best_empty = false;
    for (std::size_t i = 0; i < accounts_.size(); ++i) {
      const int deficit = targets[i] - accounts_[i]->held;
      if (deficit <= 0) continue;
      const bool empty = accounts_[i]->held == 0;
      if (best == accounts_.size() || (empty && !best_empty) ||
          (empty == best_empty && deficit > best_deficit)) {
        best = i;
        best_deficit = deficit;
        best_empty = empty;
      }
    }
    if (best == accounts_.size()) break;  // everyone at target
    const int worker = free_workers_.back();
    free_workers_.pop_back();
    accounts_[best]->backlog.push_back(worker);
    ++accounts_[best]->held;
    granted = true;
  }
  if (granted) lease_cv_.notify_all();
}

// ----- TCP front-end ---------------------------------------------------------

std::uint16_t Daemon::serve_tcp(std::uint16_t port) {
  HMXP_REQUIRE(listen_fd_ < 0, "TCP front-end already serving");
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  HMXP_CHECK(fd >= 0, "service listen socket creation failed");
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd, 16) != 0) {
    ::close(fd);
    HMXP_CHECK(false, "service listen socket bind/listen failed");
  }
  socklen_t addr_len = sizeof(addr);
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &addr_len);
  listen_fd_ = fd;
  tcp_port_ = ntohs(addr.sin_port);
  acceptor_ = std::thread([this] { tcp_accept_loop(); });
  return tcp_port_;
}

void Daemon::tcp_accept_loop() {
  while (true) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) return;  // listen socket closed: shutting down
    std::lock_guard<std::mutex> lock(sessions_mutex_);
    session_fds_.push_back(fd);
    sessions_.emplace_back([this, fd] { tcp_session(fd); });
  }
}

void Daemon::tcp_session(int fd) {
  try {
    if (wire::server_handshake(fd)) {
      std::vector<std::uint8_t> body;
      while (runtime::read_frame(fd, body, wire::kMaxRequestBytes)) {
        const std::optional<JobSpec> spec = wire::decode_job_spec(body);
        if (!spec.has_value()) break;  // malformed request: drop session
        const JobResult result = wait(submit(*spec));
        wire::ByteBuffer frame(sizeof(std::uint64_t), 0);
        wire::encode_job_result(result, frame);
        const auto length =
            static_cast<std::uint64_t>(frame.size() - sizeof(std::uint64_t));
        std::memcpy(frame.data(), &length, sizeof(length));
        runtime::write_exact(fd, frame.data(), frame.size());
      }
    }
  } catch (...) {
    // A vanished client is that client's problem, never the daemon's.
  }
  ::close(fd);
}

// ----- shutdown --------------------------------------------------------------

void Daemon::shutdown() {
  {
    std::lock_guard<std::mutex> lock(shutdown_mutex_);
    if (shut_down_) return;
    shut_down_ = true;
  }
  // 1. Stop admitting; every later submit is rejected with a reason.
  {
    std::lock_guard<std::mutex> lock(jobs_mutex_);
    accepting_ = false;
  }
  // 2. Drain: queued jobs still run, running jobs finish, waiting
  //    clients get their results.
  {
    std::unique_lock<std::mutex> lock(jobs_mutex_);
    jobs_cv_.wait(lock, [&] { return queue_.empty() && running_ == 0; });
    stopping_ = true;
    queue_cv_.notify_all();
  }
  for (std::thread& runner : runners_) runner.join();
  runners_.clear();
  // 3. Tear the TCP front-end down: shutting the listen socket pops the
  //    acceptor, shutting session sockets pops their read_frame loops.
  //    The acceptor reads listen_fd_, so it is closed and cleared only
  //    once the acceptor has been joined.
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  if (acceptor_.joinable()) acceptor_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  {
    std::lock_guard<std::mutex> lock(sessions_mutex_);
    for (const int fd : session_fds_) ::shutdown(fd, SHUT_RDWR);
  }
  for (std::thread& session : sessions_) session.join();
  sessions_.clear();
  session_fds_.clear();
  // 4. Persist what the fleet learned (quiescent now: no jobs, no
  //    sessions), then stop the workers.
  if (!calibration_path_.empty())
    platform::store_calibration(calibration_path_, calibration_key_,
                                fleet_->speeds());
  fleet_->shutdown();
}

}  // namespace hmxp::service
