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
#include <vector>

#include "matrix/matrix.hpp"
#include "runtime/buffer_pool.hpp"
#include "runtime/executor.hpp"
#include "runtime/payload.hpp"
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

TEST(Serde, LentWindowsEncodeLikeTheirDenseCopies) {
  // A strided window of a wider matrix, as the master lends it: the
  // encoder writes its rows straight into the frame, and the frame must
  // be byte for byte the one its dense copy encodes to.
  matrix::Matrix wide(5, 9);
  for (std::size_t i = 0; i < wide.rows(); ++i)
    for (std::size_t j = 0; j < wide.cols(); ++j)
      wide.at(i, j) = static_cast<double>(10 * i + j) + 0.125;
  const matrix::ConstView window = wide.window(1, 2, 3, 4);  // ld 9
  std::vector<double> dense(3 * 4);
  matrix::copy_into(window, matrix::View(dense.data(), 3, 4, 4));
  const std::vector<double> expected = dense;

  Loans loans;
  BufferPool pool;
  {
    ChunkMessage lent;
    lent.plan = sample_plan();
    lent.element_rows = 3;
    lent.element_cols = 4;
    lent.seq = 7;
    lent.c = Payload::lend(window, loans);
    ChunkMessage copied;
    copied.plan = sample_plan();
    copied.element_rows = 3;
    copied.element_cols = 4;
    copied.seq = 7;
    copied.c = std::vector<double>(expected);

    serde::ByteBuffer lent_wire, dense_wire;
    serde::encode_chunk(lent, lent_wire);
    serde::encode_chunk(copied, dense_wire);
    EXPECT_EQ(lent_wire, dense_wire);
    const ChunkMessage decoded = serde::decode_chunk(
        lent_wire.data() + serde::kLengthBytes,
        lent_wire.size() - serde::kLengthBytes, pool);
    EXPECT_EQ(decoded.c, copied.c);
    EXPECT_EQ(decoded.c, lent.c);
  }
  {
    OperandMessage lent;
    lent.step = 1;
    lent.k_elem_begin = 2;
    lent.k_elems = 4;
    lent.a = Payload::lend(window, loans);
    lent.b = Payload::lend(wide.window(0, 5, 4, 3), loans);
    EXPECT_EQ(loans.outstanding(), 2u);
    OperandMessage copied;
    copied.step = 1;
    copied.k_elem_begin = 2;
    copied.k_elems = 4;
    copied.a = std::vector<double>(expected);
    std::vector<double> b(4 * 3);
    matrix::copy_into(wide.window(0, 5, 4, 3), matrix::View(b.data(), 4, 3, 3));
    copied.b = std::move(b);

    serde::ByteBuffer lent_wire, dense_wire;
    serde::encode_operand(lent, lent_wire);
    serde::encode_operand(copied, dense_wire);
    EXPECT_EQ(lent_wire, dense_wire);
    const OperandMessage decoded = serde::decode_operand(
        lent_wire.data() + serde::kLengthBytes,
        lent_wire.size() - serde::kLengthBytes, pool);
    EXPECT_EQ(decoded.a, copied.a);
    EXPECT_EQ(decoded.b, copied.b);
  }
  // Every window went back to its lender with the message holding it.
  EXPECT_EQ(loans.outstanding(), 0u);
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
