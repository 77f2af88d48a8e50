// Endpoint::can_send against a real worker, for the transports whose
// workers are forked processes (the stream suite and the shm suite each
// run it for their own kinds). The worker's fault hook parks inside its
// first step until the test lets it go, and tells the test when it got
// there, through two pipes every forked child inherits.
#pragma once

#include <gtest/gtest.h>

#include <chrono>
#include <cstddef>
#include <vector>

#include <poll.h>
#include <unistd.h>

#include "runtime/executor.hpp"
#include "runtime/transport.hpp"
#include "sim/chunk.hpp"

namespace hmxp::runtime {
namespace {

/// Waits up to `timeout_ms` for `fd` to become readable and consumes
/// one byte; false on timeout.
bool read_signal(int fd, int timeout_ms) {
  pollfd entry{fd, POLLIN, 0};
  if (::poll(&entry, 1, timeout_ms) != 1) return false;
  char byte = 0;
  return ::read(fd, &byte, 1) == 1;
}

/// A worker stalled by its hook reads can_send() == false once the
/// master has filled its inbox, and true again after it dequeues.
void expect_can_send_tracks_the_inbox(TransportKind kind) {
  int entered[2];  // worker -> test: "parked in step 0"
  int release[2];  // test -> worker: "go on"
  ASSERT_EQ(::pipe(entered), 0);
  ASSERT_EQ(::pipe(release), 0);

  constexpr std::size_t kCapacity = 2;
  constexpr std::size_t kSide = 8;  // one 8x8 C block
  constexpr std::size_t kSteps = 6;
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
    // Every payload is a window of one zero block, lent like the
    // executor lends A, B and C; both outlive the transport.
    const matrix::Matrix zero(kSide, kSide, 0.0);
    Loans loans;
    const auto zeros = [&] { return Payload::lend(zero.view(), loans); };
    const std::unique_ptr<Transport> transport =
        make_transport(kind, /*workers=*/1, kCapacity, options,
                       std::chrono::steady_clock::now(), &pool,
                       kSide * kSide);
    Endpoint& endpoint = transport->endpoint(0);
    EXPECT_TRUE(endpoint.can_send());

    ChunkMessage chunk;
    chunk.plan = sim::make_double_buffered_chunk(
        matrix::BlockRect{0, 1, 0, 1}, kSteps);
    chunk.element_rows = kSide;
    chunk.element_cols = kSide;
    chunk.c = zeros();
    chunk.seq = 1;
    endpoint.send(std::move(chunk));
    const auto operands = [&](std::size_t step) {
      OperandMessage message;
      message.step = step;
      message.k_elem_begin = step * kSide;
      message.k_elems = kSide;
      message.a = zeros();
      message.b = zeros();
      return message;
    };
    endpoint.send(operands(0));
    ASSERT_TRUE(read_signal(entered[0], /*timeout_ms=*/10000))
        << "the worker never reached its first step";

    // The chunk and step 0 are dequeued; the next kCapacity batches sit
    // in the inbox while the worker is parked.
    for (std::size_t step = 1; step <= kCapacity; ++step)
      endpoint.send(operands(step));
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

}  // namespace
}  // namespace hmxp::runtime
