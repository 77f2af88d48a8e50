// Tests for the stream transport over socketpairs (kProcess): frame
// serialization round-trips, then the shared stream suite
// (stream_backend_suite.hpp) instantiated for the socketpair fd source --
// parity with the thread transport, serialization counters, SIGKILL
// recovery, strict-mode root cause, kernel-tier propagation, the core
// facade and backend-name parsing.
//
// The in-process serde tests keep running under ThreadSanitizer; the
// forked-worker tests skip there.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>

#include "runtime/buffer_pool.hpp"
#include "runtime/executor.hpp"
#include "runtime/serde.hpp"
#include "stream_backend_suite.hpp"

namespace hmxp::runtime {
namespace {

// ---- frame serialization ----------------------------------------------------

sim::ChunkPlan sample_plan() {
  sim::ChunkPlan plan;
  plan.rect = {1, 3, 2, 6};
  plan.steps.push_back({12, 8, 0, 1});
  plan.steps.push_back({12, 8, 1, 2});
  plan.steps.push_back({6, 8, 2, 3});
  plan.prefetch_depth = 0;
  plan.peak_override = 17;
  return plan;
}

TEST(Serde, ChunkFrameRoundTrips) {
  ChunkMessage message;
  message.plan = sample_plan();
  message.element_rows = 2;
  message.element_cols = 3;
  message.c = {1.5, -2.25, 3.0, 0.0, 1e-300, 6.5};

  serde::ByteBuffer wire;
  serde::encode_chunk(message, wire);
  ASSERT_GT(wire.size(), serde::kLengthBytes);
  const std::uint64_t length = serde::decode_length(wire.data());
  ASSERT_EQ(wire.size(), serde::kLengthBytes + length);

  BufferPool pool;
  const ChunkMessage decoded = serde::decode_chunk(
      wire.data() + serde::kLengthBytes, static_cast<std::size_t>(length),
      pool);
  EXPECT_EQ(decoded.plan.rect, message.plan.rect);
  EXPECT_EQ(decoded.plan.steps, message.plan.steps);
  EXPECT_EQ(decoded.plan.prefetch_depth, message.plan.prefetch_depth);
  EXPECT_EQ(decoded.plan.peak_override, message.plan.peak_override);
  EXPECT_EQ(decoded.element_rows, message.element_rows);
  EXPECT_EQ(decoded.element_cols, message.element_cols);
  EXPECT_EQ(decoded.c, message.c);
}

TEST(Serde, OperandAndResultFramesRoundTrip) {
  BufferPool pool;
  {
    OperandMessage message;
    message.step = 4;
    message.k_elem_begin = 32;
    message.k_elems = 2;
    message.a = {1.0, 2.0, 3.0, 4.0};
    message.b = {5.0, 6.0};
    serde::ByteBuffer wire;
    serde::encode_operand(message, wire);
    const std::uint64_t length = serde::decode_length(wire.data());
    const OperandMessage decoded = serde::decode_operand(
        wire.data() + serde::kLengthBytes, static_cast<std::size_t>(length),
        pool);
    EXPECT_EQ(decoded.step, message.step);
    EXPECT_EQ(decoded.k_elem_begin, message.k_elem_begin);
    EXPECT_EQ(decoded.k_elems, message.k_elems);
    EXPECT_EQ(decoded.a, message.a);
    EXPECT_EQ(decoded.b, message.b);
  }
  {
    ResultMessage message;
    message.plan = sample_plan();
    message.element_rows = 1;
    message.element_cols = 2;
    message.c = {9.0, -8.0};
    message.updates_performed = 3;
    message.step_seconds = {0.25, 0.125, 0.5};
    serde::ByteBuffer wire;
    serde::encode_result(message, wire);
    const std::uint64_t length = serde::decode_length(wire.data());
    const ResultMessage decoded = serde::decode_result(
        wire.data() + serde::kLengthBytes, static_cast<std::size_t>(length),
        pool);
    EXPECT_EQ(decoded.plan.steps, message.plan.steps);
    EXPECT_EQ(decoded.c, message.c);
    EXPECT_EQ(decoded.updates_performed, message.updates_performed);
    EXPECT_EQ(decoded.step_seconds, message.step_seconds);
  }
}

TEST(Serde, TruncatedFrameThrowsInsteadOfMisreading) {
  ChunkMessage message;
  message.plan = sample_plan();
  message.element_rows = 1;
  message.element_cols = 2;
  message.c = {1.0, 2.0};
  serde::ByteBuffer wire;
  serde::encode_chunk(message, wire);
  BufferPool pool;
  const std::uint64_t length = serde::decode_length(wire.data());
  EXPECT_THROW(serde::decode_chunk(wire.data() + serde::kLengthBytes,
                                   static_cast<std::size_t>(length) - 3, pool),
               std::runtime_error);
}

// ---- the shared stream suite over socketpairs -------------------------------

INSTANTIATE_TEST_SUITE_P(
    FdSource, StreamBackend,
    ::testing::Values(StreamKind{TransportKind::kProcess,
                                 core::Backend::kProcess,
                                 "process",
                                 {"PROCESSES"}}),
    stream_kind_name);

}  // namespace
}  // namespace hmxp::runtime
