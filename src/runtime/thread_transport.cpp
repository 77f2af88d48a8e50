// ThreadTransport: the in-process backend. One std::thread per worker
// runs worker_main over a pair of bounded channels; messages move by
// value, and the channel bound IS the worker's buffer capacity: a
// master pushing past it blocks. A and B windows the master lends
// travel as they are -- the worker reads the master's matrices in
// place -- while a lent C window becomes a private copy in a vector of
// the master's shared BufferPool, which the result carries home. A master
// with nothing to do parks on all its workers at once (wait_any), and a
// worker wakes it for a dequeue, a result or its death only when the
// master is parked waiting for exactly that.
#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>
#include <variant>
#include <vector>

#include "runtime/channel.hpp"
#include "runtime/executor.hpp"
#include "runtime/transport.hpp"
#include "runtime/worker_main.hpp"
#include "util/check.hpp"

namespace hmxp::runtime {

namespace {

/// What a worker's event can give a parked master (ThreadWorker::park).
constexpr unsigned kSlotFreed = 1;  // a dequeue: one more inbox slot
constexpr unsigned kResultIn = 2;   // a result in the outbox

/// A master parked on several workers at once (wait_any). Each worker
/// it waits on points here and rings it -- only for the events the
/// master waits for -- so concurrent fleet jobs never wake each other
/// or share a lock.
struct Parking {
  std::mutex mutex;
  std::condition_variable wake;
  bool rung = false;  // guarded by mutex
};

/// Per-worker thread: runs worker_main over its channels. On any
/// internal error it records the exception, raises its `failed` flag,
/// and closes BOTH its channels, so a master blocked pushing or popping
/// wakes up; the master notices the flag at its next completion sweep
/// -- and either recovers (tolerate_faults) or unwinds and rethrows.
class ThreadWorker final : public WorkerPort {
 public:
  ThreadWorker(WorkerContext context, std::size_t inbox_capacity,
               BufferPool* pool)
      : context_(std::move(context)),
        pool_(pool),
        inbox_(inbox_capacity),
        outbox_(1) {}

  Channel<WorkerMessage>& inbox() { return inbox_; }
  Channel<ResultMessage>& outbox() { return outbox_; }

  void start() {
    thread_ = std::thread([this] { run(); });
  }
  /// Signals the worker to exit once its inbox drains.
  void request_stop() { inbox_.close(); }
  /// Master-initiated decommission: closes both channels so the worker
  /// unblocks and exits; any error it raises on the way out (e.g. a
  /// push on its now-closed outbox) is expected, not a failure.
  void kill() {
    killed_.store(true, std::memory_order_release);
    inbox_.close();
    outbox_.close();
  }
  void join() {
    if (thread_.joinable()) thread_.join();
  }
  /// Points the worker at a parked master, to be rung for `events`
  /// (kSlotFreed, kResultIn); nullptr and 0 unpark it. Lose-free: the
  /// master parks before it checks the channels, the worker looks for
  /// it after changing them, and the channel mutex orders the two --
  /// so either the master's check sees the change, or the worker sees
  /// the master and rings.
  void park(Parking* parking, unsigned events) {
    std::lock_guard lock(park_mutex_);
    parking_ = parking;
    wanted_.store(events, std::memory_order_seq_cst);
  }
  /// True once the worker thread died on an exception. The release
  /// store happens after error_ is recorded, so a master that observes
  /// failed() may read error() without a race (even before join).
  bool failed() const { return failed_.load(std::memory_order_acquire); }
  bool killed() const { return killed_.load(std::memory_order_acquire); }
  /// Valid once failed() is observed (or after join()).
  const std::exception_ptr& error() const { return error_; }

  /// Hands every payload still queued in the inbox back to `pool`, and
  /// every lent window's loan back to its lender.
  void drain_inbox(BufferPool& pool) {
    while (auto message = inbox_.try_pop())
      for_each_payload(*message,
                       [&](Payload& payload) { payload.release_to(pool); });
  }

  // ----- WorkerPort (the worker-side face of the channels) -----
  std::optional<WorkerMessage> receive() override {
    return ring_on_dequeue(inbox_.pop());
  }
  std::optional<WorkerMessage> try_receive() override {
    // On a closed-and-drained inbox this reads nullopt, same as pop():
    // the follow-up blocking receive() re-observes the closure.
    return ring_on_dequeue(inbox_.try_pop());
  }
  void send(ResultMessage result) override {
    outbox_.push(std::move(result));
    ring(kResultIn);
  }

 private:
  void ring(unsigned events) {
    if ((wanted_.load(std::memory_order_seq_cst) & events) == 0) return;
    std::lock_guard lock(park_mutex_);
    if (parking_ == nullptr) return;
    std::lock_guard parked(parking_->mutex);
    parking_->rung = true;
    parking_->wake.notify_one();
  }
  std::optional<WorkerMessage> ring_on_dequeue(
      std::optional<WorkerMessage> message) {
    if (message.has_value()) ring(kSlotFreed);
    return message;
  }

  void run() {
    try {
      worker_main(context_, *this, *pool_);
    } catch (...) {
      error_ = std::current_exception();
      failed_.store(true, std::memory_order_release);
      inbox_.close();
      outbox_.close();
      // Nobody reads the inbox now. Empty it at once: the windows its
      // messages carry go back to their lender even when no master
      // comes to drain this worker -- one that cancelled its chunk and
      // gave up the lease, say -- and that lender waits for them.
      drain_inbox(*pool_);
      ring(kSlotFreed | kResultIn);  // a death is news to any master
    }
  }

  WorkerContext context_;
  BufferPool* pool_;
  Channel<WorkerMessage> inbox_;
  Channel<ResultMessage> outbox_;
  std::exception_ptr error_;
  std::mutex park_mutex_;
  Parking* parking_ = nullptr;  // guarded by park_mutex_
  std::atomic<unsigned> wanted_{0};
  std::atomic<bool> failed_{false};
  std::atomic<bool> killed_{false};
  std::thread thread_;
};

class ThreadEndpoint final : public Endpoint {
 public:
  ThreadEndpoint(ThreadWorker* worker, BufferPool* pool,
                 TransportStats* stats)
      : worker_(worker), pool_(pool), stats_(stats) {}

  void send(WorkerMessage message) override {
    // The worker accumulates into its C, and FT rollback and SP twins
    // need the master's C untouched: C travels as a private copy.
    if (auto* chunk = std::get_if<ChunkMessage>(&message)) {
      std::vector<double> copy = pool_->acquire(chunk->c.size());
      chunk->c.copy_to(copy.data());
      chunk->c = std::move(copy);
    }
    worker_->inbox().push(std::move(message));
    ++stats_->messages_sent;
  }
  bool can_send() const override { return !worker_->inbox().full(); }
  std::optional<ResultMessage> try_recv() override {
    auto result = worker_->outbox().try_pop();
    if (result.has_value()) ++stats_->messages_received;
    return result;
  }
  std::optional<ResultMessage> recv() override {
    auto result = worker_->outbox().pop();
    if (result.has_value()) ++stats_->messages_received;
    return result;
  }
  /// Whether `await` holds. The channel is read before the failure
  /// flag: a dying worker raises the flag before it closes its
  /// channels, so a check that missed the close still sees the death.
  bool holds(const Await& await) const {
    const bool news = await.result ? !worker_->outbox().empty()
                                   : !worker_->inbox().full();
    return news || worker_->failed();
  }
  bool failed() const override { return worker_->failed(); }
  std::exception_ptr error() const override { return worker_->error(); }
  bool killed() const override { return worker_->killed(); }
  void kill() override { worker_->kill(); }

  /// Hands every payload still queued on the worker's channels back to
  /// the pool (the channels survive close() for draining).
  void drain(BufferPool& pool) override {
    worker_->drain_inbox(pool);
    while (auto result = worker_->outbox().try_pop())
      result->c.release_to(pool);
  }

 private:
  ThreadWorker* worker_;
  BufferPool* pool_;
  TransportStats* stats_;
};

class ThreadTransport final : public Transport {
 public:
  ThreadTransport(int workers, std::size_t inbox_capacity,
                  const ExecutorOptions& options,
                  std::chrono::steady_clock::time_point run_begin,
                  BufferPool* pool)
      : endpoint_stats_(static_cast<std::size_t>(workers)) {
    workers_.reserve(static_cast<std::size_t>(workers));
    endpoints_.reserve(static_cast<std::size_t>(workers));
    for (int i = 0; i < workers; ++i) {
      workers_.push_back(std::make_unique<ThreadWorker>(
          make_worker_context(options, i, run_begin), inbox_capacity, pool));
      // One stats slot per endpoint: each endpoint writes only its own
      // counters, so concurrent master loops over disjoint endpoint
      // sets (fleet mode) never race here; stats() sums at quiescence.
      endpoints_.push_back(std::make_unique<ThreadEndpoint>(
          workers_.back().get(), pool,
          &endpoint_stats_[static_cast<std::size_t>(i)]));
    }
    for (auto& worker : workers_) worker->start();
  }

  ~ThreadTransport() override { shutdown(); }

  TransportKind kind() const override { return TransportKind::kThread; }
  int worker_count() const override {
    return static_cast<int>(workers_.size());
  }
  Endpoint& endpoint(int worker) override {
    HMXP_REQUIRE(worker >= 0 &&
                     static_cast<std::size_t>(worker) < endpoints_.size(),
                 "worker index out of range");
    return *endpoints_[static_cast<std::size_t>(worker)];
  }

  void wait_any(const std::vector<Await>& awaits,
                std::chrono::milliseconds timeout) override {
    Parking parking;
    for (const Await& await : awaits)
      worker(await.worker)
          .park(&parking, await.result ? kResultIn : kSlotFreed);
    {
      std::unique_lock lock(parking.mutex);
      parking.wake.wait_for(lock, timeout, [&] {
        if (parking.rung) return true;
        for (const Await& await : awaits)
          if (endpoints_[static_cast<std::size_t>(await.worker)]->holds(
                  await))
            return true;
        return false;
      });
    }
    for (const Await& await : awaits)
      worker(await.worker).park(nullptr, 0);
  }

  /// Stops and joins every worker. Closing the inboxes lets workers
  /// drain out; popping one pending result per outbox unblocks a worker
  /// stuck handing a result back. Idempotent, safe on error paths.
  void shutdown() noexcept override {
    for (auto& worker : workers_) worker->request_stop();
    for (auto& worker : workers_) {
      (void)worker->outbox().try_pop();
      worker->join();
    }
  }

  TransportStats stats() const override {
    TransportStats total;
    for (const TransportStats& slot : endpoint_stats_) total += slot;
    return total;
  }

 private:
  ThreadWorker& worker(int index) {
    return *workers_[static_cast<std::size_t>(index)];
  }

  // Declared before the endpoints that point into it; never resized
  // after construction, so the slot addresses stay stable.
  std::vector<TransportStats> endpoint_stats_;
  std::vector<std::unique_ptr<ThreadWorker>> workers_;
  std::vector<std::unique_ptr<ThreadEndpoint>> endpoints_;
};

}  // namespace

std::unique_ptr<Transport> make_thread_transport(
    int workers, std::size_t inbox_capacity, const ExecutorOptions& options,
    std::chrono::steady_clock::time_point run_begin, BufferPool* pool) {
  return std::make_unique<ThreadTransport>(workers, inbox_capacity, options,
                                           run_begin, pool);
}

}  // namespace hmxp::runtime
