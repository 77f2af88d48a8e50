// Tests for the stream transport over socketpairs (kProcess): frame
// serialization round-trips, the frame splitter every forked worker's
// pipe is read through, and a corrupt plan count that must not
// allocate, then the shared stream suite
// (stream_backend_suite.hpp) instantiated for the socketpair fd source --
// parity with the thread transport, serialization counters, SIGKILL
// recovery, strict-mode root cause, kernel-tier propagation, the core
// facade and backend-name parsing.
//
// The in-process serde tests keep running under ThreadSanitizer; the
// forked-worker tests skip there.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <optional>
#include <stdexcept>
#include <variant>
#include <vector>

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

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

TEST(Serde, FrameSplitterHandsOutOnlyWholeFrames) {
  // Two frames arriving a byte at a time, as a pipe may deliver them: no
  // frame comes out before its last byte, and they come out in order.
  ChunkMessage chunk;
  chunk.plan = sample_plan();
  chunk.element_rows = 1;
  chunk.element_cols = 2;
  chunk.c = {1.0, 2.0};
  chunk.seq = 5;
  serde::ByteBuffer wire;
  serde::encode(WorkerMessage(std::move(chunk)), wire);
  const std::size_t first_frame = wire.size();
  serde::encode(WorkerMessage(CancelMessage{5}), wire);

  BufferPool pool;
  serde::FrameSplitter splitter(serde::max_frame_bytes_for(2));
  std::vector<std::optional<WorkerMessage>> decoded;
  for (std::size_t i = 0; i < wire.size(); ++i) {
    *splitter.reserve(1) = wire[i];
    splitter.commit(1);
    const auto frame = splitter.next();
    const bool frame_ends_here = i + 1 == first_frame || i + 1 == wire.size();
    ASSERT_EQ(frame.has_value(), frame_ends_here) << "byte " << i;
    if (frame)
      decoded.push_back(
          serde::decode_inbound(frame->data(), frame->size(), pool));
  }
  ASSERT_EQ(decoded.size(), 2u);
  ASSERT_TRUE(decoded[0].has_value());
  EXPECT_EQ(std::get<ChunkMessage>(*decoded[0]).c, Payload({1.0, 2.0}));
  ASSERT_TRUE(decoded[1].has_value());
  EXPECT_EQ(std::get<CancelMessage>(*decoded[1]).seq, 5u);

  // A goodbye decodes to the end of the stream; a length beyond the
  // splitter's limit is refused before anything is sized from it.
  serde::ByteBuffer goodbye;
  serde::encode_control(serde::FrameType::kGoodbye, goodbye);
  std::copy(goodbye.begin(), goodbye.end(), splitter.reserve(goodbye.size()));
  splitter.commit(goodbye.size());
  const auto end = splitter.next();
  ASSERT_TRUE(end.has_value());
  EXPECT_FALSE(serde::decode_inbound(end->data(), end->size(), pool));
  const std::uint64_t hostile = std::uint64_t{1} << 50;
  std::memcpy(splitter.reserve(sizeof hostile), &hostile, sizeof hostile);
  splitter.commit(sizeof hostile);
  EXPECT_THROW(splitter.next(), std::runtime_error);
}

TEST(Serde, PlanStepCountIsBoundedByTheFrameBeforeAllocating) {
  HMXP_SKIP_UNDER_TSAN();
  // A one-step chunk frame whose step count claims 2^24 steps: sizing
  // the plan from that count alone would commit 512 MiB (32 B per step)
  // before the decoder noticed that the frame holds one. The decode
  // runs in a forked child, whose peak RSS the kernel reports at wait4.
  ChunkMessage message;
  message.plan.rect = {0, 1, 0, 1};
  message.plan.steps.push_back({2, 1, 0, 1});
  message.element_rows = 1;
  message.element_cols = 1;
  message.c = {1.0};
  serde::ByteBuffer wire;
  serde::encode_chunk(message, wire);
  // The count follows the type byte and the four rectangle bounds.
  const std::size_t count_at =
      serde::kLengthBytes + 1 + 4 * sizeof(std::uint64_t);
  std::uint64_t count = 0;
  std::memcpy(&count, wire.data() + count_at, sizeof count);
  ASSERT_EQ(count, 1u);
  count = std::uint64_t{1} << 24;
  std::memcpy(wire.data() + count_at, &count, sizeof count);

  long total_pages = 0, resident_pages = 0;
  {
    std::FILE* statm = std::fopen("/proc/self/statm", "r");
    ASSERT_NE(statm, nullptr);
    ASSERT_EQ(std::fscanf(statm, "%ld %ld", &total_pages, &resident_pages),
              2);
    std::fclose(statm);
  }
  const long rss_at_fork_kib =
      resident_pages * (::sysconf(_SC_PAGESIZE) / 1024);
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    int status = 1;  // decoded: the corrupt count went unnoticed
    try {
      BufferPool pool;
      serde::decode_chunk(wire.data() + serde::kLengthBytes,
                          wire.size() - serde::kLengthBytes, pool);
    } catch (const std::runtime_error&) {
      status = 0;
    } catch (...) {
      status = 2;
    }
    ::_exit(status);
  }
  int status = 0;
  struct rusage usage;
  ASSERT_EQ(::wait4(pid, &status, 0, &usage), pid);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0) << "the decode must throw runtime_error";
  EXPECT_LT(usage.ru_maxrss, rss_at_fork_kib + 64 * 1024)
      << "peak RSS of the decoding child, KiB (RSS at fork "
      << rss_at_fork_kib << " KiB)";
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
