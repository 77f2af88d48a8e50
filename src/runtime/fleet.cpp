#include "runtime/fleet.hpp"

#include "util/check.hpp"

namespace hmxp::runtime {

Fleet::Fleet(platform::Platform platform, ExecutorOptions options,
             std::size_t max_payload_doubles)
    : platform_(std::move(platform)),
      options_(std::move(options)),
      max_payload_doubles_(max_payload_doubles),
      spawn_time_(std::chrono::steady_clock::now()),
      speeds_(static_cast<std::size_t>(platform_.size())) {
  HMXP_REQUIRE(platform_.size() > 0, "fleet needs at least one worker");
  HMXP_REQUIRE(max_payload_doubles_ > 0,
               "fleet needs a positive payload ceiling");
  const auto count = static_cast<std::size_t>(platform_.size());
  // Before any worker spawns: each worker's context reads its own entry.
  HMXP_REQUIRE(options_.compute_slowdown.empty() ||
                   options_.compute_slowdown.size() == count,
               "slowdown vector must cover every worker");
  for (const int slowdown : options_.compute_slowdown)
    HMXP_REQUIRE(slowdown >= 1, "slowdown factors must be >= 1");
  drift_.reserve(count);
  dead_.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    drift_.push_back(std::make_unique<std::atomic<double>>(1.0));
    dead_.push_back(std::make_unique<std::atomic<bool>>(false));
  }
  // Inbox depth 3: the chunk message plus the double-buffered layout's
  // prefetch + 1 operand slots. The bound makes a master that overruns
  // a worker's buffers block for real; per-chunk depths below it are
  // enforced in model time by each job's mirror.
  transport_ = make_transport(options_.transport, platform_.size(),
                              /*inbox_capacity=*/3, options_, spawn_time_,
                              &pool_, max_payload_doubles_);
}

Fleet::~Fleet() { shutdown(); }

double Fleet::drift(int worker) const {
  return drift_[static_cast<std::size_t>(worker)]->load(
      std::memory_order_relaxed);
}

void Fleet::publish_drift(int worker, double drift) {
  drift_[static_cast<std::size_t>(worker)]->store(drift,
                                                  std::memory_order_relaxed);
}

void Fleet::mark_dead(int worker) {
  dead_[static_cast<std::size_t>(worker)]->store(true,
                                                 std::memory_order_release);
}

bool Fleet::alive(int worker) const {
  return !dead_[static_cast<std::size_t>(worker)]->load(
      std::memory_order_acquire);
}

std::vector<int> Fleet::readmit() {
  std::vector<int> back;
  for (int w = 0; w < size(); ++w) {
    if (alive(w) || !transport_->endpoint(w).try_readmit()) continue;
    dead_[static_cast<std::size_t>(w)]->store(false,
                                              std::memory_order_release);
    back.push_back(w);
  }
  return back;
}

int Fleet::alive_count() const {
  int alive = 0;
  for (const auto& dead : dead_)
    if (!dead->load(std::memory_order_acquire)) ++alive;
  return alive;
}

void Fleet::shutdown() noexcept {
  if (transport_ != nullptr) transport_->shutdown();
}

}  // namespace hmxp::runtime
