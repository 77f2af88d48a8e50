// One worker on a bare transport, for the transports whose workers are
// forked processes (the stream suite and the shm suite each run these
// for their own kinds): Endpoint::can_send against a real worker, and
// Transport::shutdown behind queued operands. The worker's fault hook
// stalls inside its first step and tells the test when it got there,
// through pipes every forked child inherits.
#pragma once

#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <poll.h>
#include <unistd.h>

#include "runtime/executor.hpp"
#include "runtime/transport.hpp"
#include "sim/chunk.hpp"

namespace hmxp::runtime {
namespace {

/// Ends the whole test binary if the guarded scope outlives `limit`: a
/// regression that wedges the master must fail the suite, never hang
/// ctest. Forked workers die with the binary (PR_SET_PDEATHSIG).
class Watchdog {
 public:
  Watchdog(std::chrono::seconds limit, std::string what)
      : thread_([this, limit, what = std::move(what)] {
          std::unique_lock<std::mutex> lock(mutex_);
          if (!done_cv_.wait_for(lock, limit, [this] { return done_; })) {
            std::fprintf(stderr, "watchdog: %s still running after %llds\n",
                         what.c_str(),
                         static_cast<long long>(limit.count()));
            std::_Exit(1);
          }
        }) {}
  ~Watchdog() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      done_ = true;
    }
    done_cv_.notify_all();
    thread_.join();
  }
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

 private:
  std::mutex mutex_;
  std::condition_variable done_cv_;
  bool done_ = false;
  std::thread thread_;  // last: starts once the members it uses exist
};

/// Waits up to `timeout_ms` for `fd` to become readable and consumes
/// one byte; false on timeout.
bool read_signal(int fd, int timeout_ms) {
  pollfd entry{fd, POLLIN, 0};
  if (::poll(&entry, 1, timeout_ms) != 1) return false;
  char byte = 0;
  return ::read(fd, &byte, 1) == 1;
}

constexpr std::size_t kSide = 8;  // one 8x8 C block
constexpr std::size_t kSteps = 6;

/// A chunk of one C block in kSteps steps, and the operands of its step
/// `step`. Every payload is a window of the block `zero` lent against
/// `loans`, as the executor lends A, B and C; both outlive the
/// transport.
ChunkMessage one_block_chunk(const matrix::Matrix& zero, Loans& loans) {
  ChunkMessage chunk;
  chunk.plan = sim::make_double_buffered_chunk(
      matrix::BlockRect{0, 1, 0, 1}, kSteps);
  chunk.element_rows = kSide;
  chunk.element_cols = kSide;
  chunk.c = Payload::lend(zero.view(), loans);
  chunk.seq = 1;
  return chunk;
}

OperandMessage one_block_operands(const matrix::Matrix& zero, Loans& loans,
                                  std::size_t step) {
  OperandMessage message;
  message.step = step;
  message.k_elem_begin = step * kSide;
  message.k_elems = kSide;
  message.a = Payload::lend(zero.view(), loans);
  message.b = Payload::lend(zero.view(), loans);
  return message;
}

/// A worker stalled by its hook reads can_send() == false once the
/// master has filled its inbox, and true again after it dequeues.
void expect_can_send_tracks_the_inbox(TransportKind kind) {
  int entered[2];  // worker -> test: "parked in step 0"
  int release[2];  // test -> worker: "go on"
  ASSERT_EQ(::pipe(entered), 0);
  ASSERT_EQ(::pipe(release), 0);

  constexpr std::size_t kCapacity = 2;
  ExecutorOptions options;
  options.transport = kind;
  options.fault_hook = [tell = entered[1], wait = release[0]](
                           int, std::size_t step) {
    if (step != 0) return;
    const char byte = 1;
    if (::write(tell, &byte, 1) != 1) return;
    read_signal(wait, /*timeout_ms=*/10000);
  };

  {
    BufferPool pool;  // outlives the workers that recycle into it
    const matrix::Matrix zero(kSide, kSide, 0.0);
    Loans loans;
    const std::unique_ptr<Transport> transport =
        make_transport(kind, /*workers=*/1, kCapacity, options,
                       std::chrono::steady_clock::now(), &pool,
                       kSide * kSide);
    Endpoint& endpoint = transport->endpoint(0);
    EXPECT_TRUE(endpoint.can_send());

    endpoint.send(one_block_chunk(zero, loans));
    endpoint.send(one_block_operands(zero, loans, 0));
    ASSERT_TRUE(read_signal(entered[0], /*timeout_ms=*/10000))
        << "the worker never reached its first step";

    // The chunk and step 0 are dequeued; the next kCapacity batches sit
    // in the inbox while the worker is parked.
    for (std::size_t step = 1; step <= kCapacity; ++step)
      endpoint.send(one_block_operands(zero, loans, step));
    EXPECT_FALSE(endpoint.can_send());

    const char go = 1;
    ASSERT_EQ(::write(release[1], &go, 1), 1);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (std::chrono::steady_clock::now() < deadline) {
      (void)endpoint.try_recv();  // the stream learns of credits here
      if (endpoint.can_send()) break;
      transport->wait_any({Await{0, false}}, std::chrono::milliseconds(100));
    }
    EXPECT_TRUE(endpoint.can_send());
    EXPECT_FALSE(endpoint.failed());
    transport->shutdown();
  }
  for (const int fd : {entered[0], entered[1], release[0], release[1]})
    ::close(fd);
}

/// The goodbye behind queued operands: the worker stalls 300 ms in step
/// 0 while two operand batches wait in its inbox, and shutdown() queues
/// the goodbye behind them. The worker's cancel lookahead is what reads
/// that goodbye, and the worker must still end its stream there -- not
/// take the EOF behind it for a dropped link, die (process) or redial
/// the still-open listen socket and block in a handshake while
/// shutdown() waits to reap it (tcp).
void expect_shutdown_stops_at_the_goodbye(TransportKind kind) {
  int entered[2];  // worker -> test: "stalling in step 0"
  ASSERT_EQ(::pipe(entered), 0);
  ExecutorOptions options;
  options.transport = kind;
  options.fault_hook = [tell = entered[1]](int, std::size_t step) {
    if (step != 0) return;
    const char byte = 1;
    if (::write(tell, &byte, 1) != 1) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
  };

  {
    const Watchdog watchdog(std::chrono::seconds(60),
                            std::string("shutdown behind queued operands "
                                        "over ") +
                                transport_kind_name(kind));
    BufferPool pool;  // outlives the workers that recycle into it
    const matrix::Matrix zero(kSide, kSide, 0.0);
    Loans loans;
    const std::unique_ptr<Transport> transport =
        make_transport(kind, /*workers=*/1, /*inbox_capacity=*/3, options,
                       std::chrono::steady_clock::now(), &pool,
                       kSide * kSide);
    Endpoint& endpoint = transport->endpoint(0);
    endpoint.send(one_block_chunk(zero, loans));
    endpoint.send(one_block_operands(zero, loans, 0));
    ASSERT_TRUE(read_signal(entered[0], /*timeout_ms=*/10000))
        << "the worker never reached its first step";
    endpoint.send(one_block_operands(zero, loans, 1));
    endpoint.send(one_block_operands(zero, loans, 2));

    const auto begin = std::chrono::steady_clock::now();
    transport->shutdown();
    const double seconds = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - begin)
                               .count();
    EXPECT_LT(seconds, 10.0);
    EXPECT_FALSE(endpoint.failed()) << "the worker did not end at the goodbye";
  }
  for (const int fd : {entered[0], entered[1]}) ::close(fd);
}

}  // namespace
}  // namespace hmxp::runtime
