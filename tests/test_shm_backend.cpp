// Tests for the zero-copy shm transport: SharedArena slot accounting
// (acquire/release, owner-tagged crash reclamation, the benign
// double-release race, leak counters, cross-thread stress), both byte
// pipes driven from two threads of one process (a ring pair and a
// socketpair: frames whole and in order, bounded parks), slot
// references through the one frame codec against a real arena (and
// their rejection without one), cross-transport parity
// (thread vs shm backends produce identical decision sequences and
// bit-for-bit identical C for every registered scheduler),
// Endpoint::can_send against the worker's returned credits, a shutdown
// behind queued operands, SIGKILL'd workers as recoverable failures
// WITH no arena slot leaked, the
// zero-copy stats the transport reports, and the core facade's
// Backend::kShm plumbing.
//
// Like the process suite, everything that forks worker processes SKIPS
// under ThreadSanitizer (fork from a multithreaded parent breaks the
// TSan runtime); the arena and pipe tests stay, keeping the
// shared-memory atomics under the sanitizer.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstring>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <sys/socket.h>
#include <unistd.h>

#include "core/experiment.hpp"
#include "core/run.hpp"
#include "inbox_probe.hpp"
#include "runtime/byte_pipe.hpp"
#include "runtime/executor.hpp"
#include "runtime/serde.hpp"
#include "runtime/shared_arena.hpp"
#include "sched/registry.hpp"
#include "util/rng.hpp"

#if defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define HMXP_TSAN 1
#endif
#elif defined(__SANITIZE_THREAD__)
#define HMXP_TSAN 1
#endif

#if defined(HMXP_TSAN)
#define HMXP_SKIP_UNDER_TSAN()                                   \
  GTEST_SKIP() << "shm transport forks worker processes, which " \
                  "ThreadSanitizer does not support"
#else
#define HMXP_SKIP_UNDER_TSAN() \
  do {                         \
  } while (false)
#endif

namespace hmxp::runtime {
namespace {

matrix::Matrix random_matrix(std::size_t rows, std::size_t cols,
                             std::uint64_t seed) {
  util::Rng rng(seed);
  return matrix::Matrix::random(rows, cols, rng);
}

// ---- SharedArena ------------------------------------------------------------

TEST(SharedArena, AcquireReleaseRecountsExactly) {
  SharedArena arena(4, 8);
  EXPECT_EQ(arena.slot_count(), 4u);
  EXPECT_EQ(arena.slot_doubles(), 8u);
  EXPECT_EQ(arena.in_use(), 0u);

  auto slot = arena.try_acquire(/*owner=*/0);
  ASSERT_TRUE(slot.has_value());
  EXPECT_EQ(arena.in_use(), 1u);
  // The slot's storage is real, shared, writable memory.
  for (std::size_t i = 0; i < arena.slot_doubles(); ++i)
    slot->data[i] = static_cast<double>(i);
  EXPECT_EQ(arena.slot_data(slot->index), slot->data);

  EXPECT_TRUE(arena.release(slot->index));
  EXPECT_EQ(arena.in_use(), 0u);
  const SharedArena::Stats stats = arena.stats();
  EXPECT_EQ(stats.acquires, 1u);
  EXPECT_EQ(stats.releases, 1u);
  EXPECT_EQ(stats.peak_in_use, 1u);
}

TEST(SharedArena, ExhaustionIsNonBlockingAndRecoverable) {
  SharedArena arena(2, 4);
  auto first = arena.try_acquire(0);
  auto second = arena.try_acquire(1);
  ASSERT_TRUE(first.has_value());
  ASSERT_TRUE(second.has_value());
  // Full: the endpoint packing a window would now pump and retry.
  EXPECT_FALSE(arena.try_acquire(2).has_value());
  EXPECT_TRUE(arena.release(first->index));
  auto third = arena.try_acquire(2);
  ASSERT_TRUE(third.has_value());
  EXPECT_EQ(third->index, first->index);  // slots recycle
}

TEST(SharedArena, CrashReclamationSweepsOnlyTheDeadWorkersSlots) {
  SharedArena arena(6, 4);
  auto w0_a = arena.try_acquire(0);
  auto w0_b = arena.try_acquire(0);
  auto w1 = arena.try_acquire(1);
  ASSERT_TRUE(w0_a && w0_b && w1);
  EXPECT_EQ(arena.in_use(), 3u);

  // Worker 0 is SIGKILL'd: everything tagged 0 comes back, worker 1's
  // slot is untouched.
  EXPECT_EQ(arena.release_all_owned_by(0), 2u);
  EXPECT_EQ(arena.in_use(), 1u);
  EXPECT_EQ(arena.release_all_owned_by(0), 0u);  // idempotent

  // The benign race: a reclaimed slot's straggling release is a no-op,
  // and the counters stay balanced.
  EXPECT_FALSE(arena.release(w0_a->index));
  EXPECT_EQ(arena.in_use(), 1u);

  EXPECT_EQ(arena.release_all(), 1u);  // the leak detector
  EXPECT_EQ(arena.in_use(), 0u);
  EXPECT_EQ(arena.release_all(), 0u);
}

TEST(SharedArena, ConcurrentAcquireReleaseKeepsEverySlotAccounted) {
  // The arena's atomics are the only synchronization between master and
  // workers; hammer them from racing threads (this test runs under
  // every sanitizer, including TSan). Each thread loops acquire ->
  // write -> verify -> release; no slot may be handed to two owners.
  constexpr std::size_t kSlots = 8;
  constexpr int kThreads = 4;
  constexpr int kRounds = 2000;
  SharedArena arena(kSlots, 16);
  std::atomic<bool> failed{false};

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&arena, &failed, t] {
      for (int round = 0; round < kRounds && !failed.load(); ++round) {
        auto slot = arena.try_acquire(static_cast<std::uint32_t>(t));
        if (!slot.has_value()) continue;  // full: another thread owns it
        const double tag =
            static_cast<double>(t * kRounds + round);
        for (std::size_t i = 0; i < arena.slot_doubles(); ++i)
          slot->data[i] = tag;
        for (std::size_t i = 0; i < arena.slot_doubles(); ++i)
          if (slot->data[i] != tag) failed.store(true);  // shared owner!
        if (!arena.release(slot->index)) failed.store(true);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  EXPECT_FALSE(failed.load());
  EXPECT_EQ(arena.in_use(), 0u);
  const SharedArena::Stats stats = arena.stats();
  EXPECT_EQ(stats.acquires, stats.releases);
  EXPECT_LE(stats.peak_in_use, kSlots);
}

// ---- both byte pipes, in-process --------------------------------------------

// The forked transport runs every pipe through worker processes, which
// TSan cannot follow; these tests drive a ring pair and a socketpair from
// two threads of one process, so the ring's cursor ordering runs under
// every sanitizer.

constexpr std::size_t kPipeFrames = 2000;
constexpr int kPipeParkMs = 10;

/// Byte `j` of frame `i`'s body, recomputed by the reader to check it.
std::uint8_t pipe_byte(std::size_t i, std::size_t j) {
  return static_cast<std::uint8_t>(i * 131 + j * 7 + (j >> 9));
}

/// Streams kPipeFrames seeded frames -- every other one up to 64 B, so
/// many share a ring lap, the rest up to 3 x kRingBytes, so they span
/// laps -- from a writer thread through `writer`, parking while it is
/// full, then calls `finish`. The calling thread cuts what `reader`
/// delivers with a FrameSplitter, parking while it is empty: every frame
/// must come out whole, in order and byte-identical, followed by an EOF
/// when `eof_follows` and by nothing otherwise.
void expect_frames_arrive_whole(BytePipe& writer, BytePipe& reader,
                                const std::function<void()>& finish,
                                bool eof_follows) {
  util::Rng rng(25);
  std::vector<std::size_t> sizes(kPipeFrames);
  for (std::size_t i = 0; i < sizes.size(); ++i)
    sizes[i] = static_cast<std::size_t>(rng.uniform_int(
        1, i % 2 == 0 ? 64 : static_cast<std::int64_t>(3 * kRingBytes)));

  std::atomic<bool> stop{false};
  std::thread producer([&] {
    serde::ByteBuffer frame;
    for (std::size_t i = 0; i < sizes.size() && !stop.load(); ++i) {
      const std::uint64_t length = sizes[i];
      frame.assign(serde::kLengthBytes, 0);
      std::memcpy(frame.data(), &length, sizeof length);
      for (std::size_t j = 0; j < sizes[i]; ++j)
        frame.push_back(pipe_byte(i, j));
      for (std::size_t sent = 0; sent < frame.size() && !stop.load();) {
        const std::size_t n =
            writer.write_some(frame.data() + sent, frame.size() - sent);
        if (n == 0) writer.park(/*writable=*/true, kPipeParkMs);
        sent += n;
      }
    }
    finish();
  });

  serde::FrameSplitter rx(3 * kRingBytes);
  std::size_t received = 0;
  std::size_t damaged = 0;
  bool open = true;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(120);
  while (received < sizes.size() && open &&
         std::chrono::steady_clock::now() < deadline) {
    open = reader.read_into(rx);
    const std::size_t before = received;
    while (const auto frame = rx.next()) {
      bool whole = received < sizes.size() && frame->size() == sizes[received];
      for (std::size_t j = 0; whole && j < frame->size(); ++j)
        whole = (*frame)[j] == pipe_byte(received, j);
      if (!whole) ++damaged;
      ++received;
    }
    if (received == before && open)
      reader.park(/*writable=*/false, kPipeParkMs);
  }
  stop.store(true);
  producer.join();

  EXPECT_EQ(received, sizes.size());
  EXPECT_EQ(damaged, 0u);
  open = reader.read_into(rx);
  while (eof_follows && open && std::chrono::steady_clock::now() < deadline) {
    reader.park(/*writable=*/false, kPipeParkMs);
    open = reader.read_into(rx);
  }
  EXPECT_EQ(open, !eof_follows);
  EXPECT_FALSE(rx.next().has_value()) << "bytes after the last frame";
}

TEST(BytePipes, RingPairCarriesEveryFrameWholeAndInOrder) {
  // The worker's side writes its outbox and rings the bell each time.
  const auto channel = std::make_unique<RingChannel>();
  SharedAckBoard board(1);
  RingPipe worker(channel->inbox, channel->outbox, &board);
  RingPipe master(channel->outbox, channel->inbox);
  expect_frames_arrive_whole(worker, master, [] {}, /*eof_follows=*/false);
  EXPECT_GT(board.bell_count(), 0u);
}

TEST(BytePipes, SocketPairCarriesEveryFrameWholeAndInOrder) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  SocketPipe writer(fds[0]);
  SocketPipe reader(fds[1]);
  expect_frames_arrive_whole(
      writer, reader, [&] { ::shutdown(fds[0], SHUT_WR); },
      /*eof_follows=*/true);
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST(BytePipes, ParkedSidesReturnWithinTheirTimeout) {
  // Nothing will ever arrive, and nobody drains what is written: each
  // side parks on an empty pipe, then on a full one, and every park must
  // end on its own bound.
  const auto channel = std::make_unique<RingChannel>();
  RingPipe ring(channel->outbox, channel->inbox);
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  SocketPipe socket(fds[0]);
  const std::vector<std::uint8_t> block(4096, 0x5a);
  for (BytePipe* pipe : {static_cast<BytePipe*>(&ring),
                         static_cast<BytePipe*>(&socket)}) {
    for (const bool writable : {false, true}) {
      while (writable && pipe->write_some(block.data(), block.size()) > 0) {
      }
      const auto begin = std::chrono::steady_clock::now();
      pipe->park(writable, /*timeout_ms=*/20);
      EXPECT_LT(std::chrono::steady_clock::now() - begin,
                std::chrono::seconds(1))
          << (writable ? "a writer" : "a reader")
          << " parked past its timeout";
    }
  }
  ::close(fds[0]);
  ::close(fds[1]);
}

// ---- slot references in the one codec ---------------------------------------

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

/// Packs `values` into a fresh arena slot and wraps it as a payload.
Payload pack_slot(SharedArena& arena, std::uint32_t owner,
                  const std::vector<double>& values) {
  auto slot = arena.try_acquire(owner);
  EXPECT_TRUE(slot.has_value());
  std::memcpy(slot->data, values.data(), values.size() * sizeof(double));
  return Payload::arena_view(&arena, slot->index, slot->data, values.size());
}

/// The body of the one frame in `wire`.
std::pair<const std::uint8_t*, std::size_t> body_of(
    const serde::ByteBuffer& wire) {
  const std::uint64_t length = serde::decode_length(wire.data());
  EXPECT_EQ(wire.size(), serde::kLengthBytes + length);
  return {wire.data() + serde::kLengthBytes,
          static_cast<std::size_t>(length)};
}

TEST(ShmSerde, DescriptorFramesRoundTripWithoutCopyingPayloads) {
  SharedArena arena(8, 16);
  BufferPool pool;
  {
    ChunkMessage message;
    message.plan = sample_plan();
    message.element_rows = 2;
    message.element_cols = 3;
    message.c = pack_slot(arena, 0, {1.5, -2.25, 3.0, 0.0, 1e-300, 6.5});

    serde::ByteBuffer wire;
    serde::encode_chunk(message, wire);
    // The frame is metadata-sized: the six payload doubles stay put.
    EXPECT_LT(wire.size(), 256u);
    const auto [body, size] = body_of(wire);
    const ChunkMessage decoded = serde::decode_chunk(body, size, pool, &arena);
    EXPECT_EQ(decoded.plan.rect, message.plan.rect);
    EXPECT_EQ(decoded.plan.steps, message.plan.steps);
    EXPECT_EQ(decoded.element_rows, message.element_rows);
    EXPECT_EQ(decoded.element_cols, message.element_cols);
    // Zero-copy means the SAME bytes, not equal bytes.
    EXPECT_EQ(decoded.c.data(), message.c.data());
    EXPECT_EQ(decoded.c, message.c);
    // The decoded message owns the slot now; forget the encoder's view
    // so only one release happens (as the endpoints do after shipping).
    message.c.detach();
  }
  {
    OperandMessage message;
    message.step = 4;
    message.k_elem_begin = 32;
    message.k_elems = 2;
    message.a = pack_slot(arena, 1, {1.0, 2.0, 3.0, 4.0});
    message.b = pack_slot(arena, 1, {5.0, 6.0});
    serde::ByteBuffer wire;
    serde::encode_operand(message, wire);
    const auto [body, size] = body_of(wire);
    const OperandMessage decoded =
        serde::decode_operand(body, size, pool, &arena);
    EXPECT_EQ(decoded.step, message.step);
    EXPECT_EQ(decoded.a.data(), message.a.data());
    EXPECT_EQ(decoded.b.data(), message.b.data());
    EXPECT_EQ(decoded.a, message.a);
    EXPECT_EQ(decoded.b, message.b);
    message.a.detach();
    message.b.detach();
  }
  {
    ResultMessage message;
    message.plan = sample_plan();
    message.element_rows = 1;
    message.element_cols = 2;
    message.c = pack_slot(arena, 2, {9.0, -8.0});
    message.updates_performed = 3;
    message.step_seconds = {0.25, 0.125, 0.5};
    serde::ByteBuffer wire;
    serde::encode_result(message, wire);
    const auto [body, size] = body_of(wire);
    const ResultMessage decoded =
        serde::decode_result(body, size, pool, &arena);
    EXPECT_EQ(decoded.c.data(), message.c.data());
    EXPECT_EQ(decoded.updates_performed, message.updates_performed);
    EXPECT_EQ(decoded.step_seconds, message.step_seconds);
    message.c.detach();
  }
  // Every decoded payload above released its slot on destruction.
  EXPECT_EQ(arena.in_use(), 0u);
}

TEST(ShmSerde, DescriptorValidationRejectsCorruptSlots) {
  SharedArena arena(2, 4);
  BufferPool pool;
  ChunkMessage message;
  message.plan = sample_plan();
  message.element_rows = 1;
  message.element_cols = 2;
  message.c = pack_slot(arena, 0, {1.0, 2.0});
  serde::ByteBuffer wire;
  serde::encode_chunk(message, wire);
  const auto [body, size] = body_of(wire);

  // Truncated frame.
  EXPECT_THROW(serde::decode_chunk(body, size - 3, pool, &arena),
               std::runtime_error);
  // A slot index beyond the arena must be rejected, not dereferenced:
  // decode against a SMALLER arena than the encoder's.
  SharedArena tiny(1, 4);
  auto hijack = tiny.try_acquire(0);  // make slot 0 the only valid one
  ASSERT_TRUE(hijack.has_value());
  serde::ByteBuffer corrupt;
  {
    ChunkMessage big;
    big.plan = sample_plan();
    big.element_rows = 1;
    big.element_cols = 2;
    auto slot = arena.try_acquire(1);
    ASSERT_TRUE(slot.has_value());
    ASSERT_GE(slot->index, tiny.slot_count());  // out of range for `tiny`
    big.c = Payload::arena_view(&arena, slot->index, slot->data, 2);
    serde::encode_chunk(big, corrupt);
  }
  const auto [corrupt_body, corrupt_size] = body_of(corrupt);
  EXPECT_THROW(serde::decode_chunk(corrupt_body, corrupt_size, pool, &tiny),
               std::runtime_error);
  // An in-range slot whose length overflows the slot size likewise.
  serde::ByteBuffer oversize;
  {
    ResultMessage big;
    big.plan = sample_plan();
    big.element_rows = 1;
    big.element_cols = 8;
    auto slot = tiny.try_acquire(0);
    (void)slot;  // tiny is full; reuse the hijacked slot's index
    big.c = Payload::arena_view(&tiny, hijack->index, hijack->data, 8);
    serde::encode_result(big, oversize);
    big.c.detach();  // keep the slot with `hijack`
  }
  const auto [oversize_body, oversize_size] = body_of(oversize);
  EXPECT_THROW(
      serde::decode_result(oversize_body, oversize_size, pool, &tiny),
      std::runtime_error);
}

TEST(ShmSerde, SlotReferencesNeedAnArenaAndHomesMustBeKnown) {
  SharedArena arena(2, 4);
  BufferPool pool;
  ChunkMessage message;
  message.plan = sample_plan();
  message.element_rows = 1;
  message.element_cols = 2;
  message.c = pack_slot(arena, 0, {1.0, 2.0});
  serde::ByteBuffer wire;
  serde::encode_chunk(message, wire);
  const auto [body, size] = body_of(wire);
  // A slot reference means nothing to a pipe without an arena.
  EXPECT_THROW(serde::decode_chunk(body, size, pool), std::runtime_error);
  EXPECT_THROW(serde::decode_inbound(body, size, pool), std::runtime_error);
  EXPECT_EQ(arena.in_use(), 1u);  // the encoder's slot stays its own

  // The same chunk inline ends in [u8 home][u64 n][n doubles]; a home
  // byte that is neither inline nor arena is corrupt.
  ChunkMessage inline_message;
  inline_message.plan = sample_plan();
  inline_message.element_rows = 1;
  inline_message.element_cols = 2;
  inline_message.c = {1.0, 2.0};
  serde::ByteBuffer inline_wire;
  serde::encode_chunk(inline_message, inline_wire);
  const std::size_t home_at =
      inline_wire.size() - 1 - sizeof(std::uint64_t) - 2 * sizeof(double);
  ASSERT_EQ(inline_wire[home_at], 0u);
  inline_wire[home_at] = 7;
  const auto [inline_body, inline_size] = body_of(inline_wire);
  EXPECT_THROW(serde::decode_chunk(inline_body, inline_size, pool, &arena),
               std::runtime_error);
  EXPECT_THROW(serde::decode_inbound(inline_body, inline_size, pool, &arena),
               std::runtime_error);
}

// ---- cross-transport parity -------------------------------------------------

platform::Platform hetero_platform() {
  std::vector<platform::WorkerSpec> specs = {
      {0.010, 0.001, 30, "alpha"},
      {0.013, 0.002, 60, "beta"},
      {0.017, 0.0015, 140, "gamma"},
  };
  return platform::Platform("parity", specs);
}

struct TransportRun {
  ExecutorReport report;
  std::vector<sim::Decision> decisions;
  matrix::Matrix c;
};

TransportRun run_transport(sim::Scheduler& scheduler,
                           TransportKind transport,
                           const platform::Platform& plat,
                           const matrix::Partition& part) {
  const auto a = random_matrix(part.n_a(), part.n_ab(), 11);
  const auto b = random_matrix(part.n_ab(), part.n_b(), 12);
  TransportRun run{.report = {}, .decisions = {},
                   .c = random_matrix(part.n_a(), part.n_b(), 13)};
  ExecutorOptions options;
  options.transport = transport;
  run.report = execute_online(scheduler, plat, part, a, b, run.c, options,
                              &run.decisions);
  return run;
}

TransportRun run_live(const std::string& algorithm, TransportKind transport,
                      const platform::Platform& plat,
                      const matrix::Partition& part) {
  auto scheduler = sched::Registry::instance().make(algorithm, plat, part);
  return run_transport(*scheduler, transport, plat, part);
}

TEST(ShmBackend, EveryRegisteredSchedulerLiveParityWithThreadTransport) {
  HMXP_SKIP_UNDER_TSAN();
  // Same order-invariant guarantee the process suite pins: on a
  // homogeneous platform every layout groups the same k sets, so the
  // two transports must agree on decision count, full coverage, and
  // bit-for-bit C whatever the live interleaving.
  const auto plat = platform::Platform::homogeneous(3, 0.01, 0.002, 40);
  const matrix::Partition part(52, 70, 100, 8);  // q=8: r=7, t=9, s=13

  for (const std::string& algorithm : sched::Registry::instance().names()) {
    SCOPED_TRACE(algorithm);
    const TransportRun threaded =
        run_live(algorithm, TransportKind::kThread, plat, part);
    const TransportRun shm =
        run_live(algorithm, TransportKind::kShm, plat, part);

    EXPECT_TRUE(threaded.report.verified);
    EXPECT_TRUE(shm.report.verified);
    EXPECT_EQ(shm.report.transport, "shm");

    // SP-* decision streams react to measured wall drift: a scheduling
    // hiccup can legitimately trip the speculation gate on one
    // transport and not the other, adding duplicate/cancel decisions
    // and wasted twin updates. Their guarantee is the bit-for-bit C
    // below; the counts are only pinned for drift-blind schedulers.
    if (algorithm.rfind("SP-", 0) != 0) {
      EXPECT_EQ(shm.decisions.size(), threaded.decisions.size());
      EXPECT_EQ(shm.report.updates_performed,
                threaded.report.updates_performed);
      EXPECT_EQ(shm.report.chunks_processed,
                threaded.report.chunks_processed);
    }
    EXPECT_EQ(matrix::Matrix::max_abs_diff(shm.c, threaded.c), 0.0);
    // Clean runs leave the arena empty.
    EXPECT_EQ(shm.report.transport_stats.arena_leaked_slots, 0u);
  }
}

TEST(ShmBackend, EveryRegisteredSchedulerReplaysIdenticallyOnShm) {
  HMXP_SKIP_UNDER_TSAN();
  // The deterministic half: the recorded schedule replays on the shm
  // transport with EXACTLY the simulator's decision sequence, the same
  // model projection, and bit-for-bit the thread transport's C.
  const platform::Platform plat = hetero_platform();
  const matrix::Partition part(52, 70, 100, 8);

  for (const std::string& algorithm : sched::Registry::instance().names()) {
    SCOPED_TRACE(algorithm);
    auto probe = sched::Registry::instance().make(algorithm, plat, part);
    std::vector<sim::Decision> simulated;
    const sim::RunResult sim_result =
        sim::simulate(*probe, plat, part, false, &simulated);

    TransportRun runs[2];
    const TransportKind kinds[2] = {TransportKind::kThread,
                                    TransportKind::kShm};
    for (int which = 0; which < 2; ++which) {
      sim::ReplayScheduler replay(algorithm, simulated);
      runs[which] = run_transport(replay, kinds[which], plat, part);
      const TransportRun& run = runs[which];
      EXPECT_TRUE(run.report.verified);
      ASSERT_EQ(run.decisions.size(), simulated.size());
      for (std::size_t i = 0; i < simulated.size(); ++i) {
        EXPECT_EQ(run.decisions[i].comm, simulated[i].comm)
            << transport_kind_name(kinds[which]) << " decision " << i;
        EXPECT_EQ(run.decisions[i].worker, simulated[i].worker)
            << transport_kind_name(kinds[which]) << " decision " << i;
      }
      EXPECT_DOUBLE_EQ(run.report.result.makespan, sim_result.makespan);
      EXPECT_EQ(run.report.result.comm_blocks, sim_result.comm_blocks);
    }
    EXPECT_EQ(matrix::Matrix::max_abs_diff(runs[1].c, runs[0].c), 0.0);
  }
}

TEST(ShmBackend, StatsShowZeroCopyPayloadsAndDescriptorSizedWire) {
  HMXP_SKIP_UNDER_TSAN();
  const auto plat = platform::Platform::homogeneous(3, 0.01, 0.002, 40);
  const matrix::Partition part(40, 40, 56, 8);

  const TransportRun forked =
      run_live("ODDOML", TransportKind::kProcess, plat, part);
  const TransportRun shm = run_live("ODDOML", TransportKind::kShm, plat, part);

  const TransportStats& stats = shm.report.transport_stats;
  // Same message counts as the serializing transport...
  EXPECT_EQ(stats.messages_sent,
            forked.report.transport_stats.messages_sent);
  EXPECT_EQ(stats.messages_received,
            forked.report.transport_stats.messages_received);
  // ...but the payload bytes crossed through the arena, not the wire:
  // the socket carries only descriptor-sized control frames.
  EXPECT_GT(stats.bytes_zero_copied, 0u);
  EXPECT_GT(stats.bytes_sent, 0u);
  EXPECT_LT(stats.bytes_sent, stats.bytes_zero_copied / 10);
  EXPECT_LT(stats.bytes_sent, forked.report.transport_stats.bytes_sent);
  // The zero-copy volume matches what the process transport serialized,
  // give or take frame metadata: identical messages moved.
  EXPECT_LT(stats.bytes_zero_copied,
            forked.report.transport_stats.bytes_sent +
                forked.report.transport_stats.bytes_received);
  // Arena occupancy: sized workers x 16, actually used, never leaked.
  EXPECT_EQ(stats.arena_slots, 3u * 16u);
  EXPECT_GT(stats.arena_peak_slots, 0u);
  EXPECT_LE(stats.arena_peak_slots, stats.arena_slots);
  EXPECT_EQ(stats.arena_leaked_slots, 0u);
  // The process transport reports no arena (it has none).
  EXPECT_EQ(forked.report.transport_stats.arena_slots, 0u);
  EXPECT_EQ(forked.report.transport_stats.bytes_zero_copied, 0u);
}

TEST(ShmBackend, CanSendFollowsTheAckBoard) {
  HMXP_SKIP_UNDER_TSAN();
  expect_can_send_tracks_the_inbox(TransportKind::kShm);
}

// ---- worker death and slot reclamation --------------------------------------

TEST(ShmBackend, ShutdownStopsAtTheGoodbyeBehindQueuedOperands) {
  HMXP_SKIP_UNDER_TSAN();
  expect_shutdown_stops_at_the_goodbye(TransportKind::kShm);
}

TEST(ShmBackend, SigkilledWorkerRecoversBitForBitWithoutLeakingSlots) {
  HMXP_SKIP_UNDER_TSAN();
  // The process suite's SIGKILL recovery, with the shm-specific stake:
  // the dead child held arena slots (its resident chunk, queued
  // operands) that no destructor will ever release. The endpoint drain
  // must sweep every slot tagged with the dead worker, the run must
  // finish with the fault-free C bit for bit, and the arena must end
  // empty -- leaked slots would starve long fault-tolerant runs.
  const matrix::Partition part(40, 40, 40, 8);
  const auto plat = platform::Platform::homogeneous(3, 0.01, 0.002, 40);
  const auto a = random_matrix(40, 40, 21);
  const auto b = random_matrix(40, 40, 22);
  const matrix::Matrix c_initial = random_matrix(40, 40, 23);

  matrix::Matrix c_clean = c_initial;
  {
    auto scheduler =
        sched::Registry::instance().make("FT-ODDOML", plat, part);
    ExecutorOptions options;
    options.transport = TransportKind::kShm;
    const ExecutorReport report =
        execute_online(*scheduler, plat, part, a, b, c_clean, options);
    EXPECT_TRUE(report.verified);
    EXPECT_EQ(report.workers_failed, 0);
    EXPECT_EQ(report.transport_stats.arena_leaked_slots, 0u);
  }

  matrix::Matrix c_faulty = c_initial;
  {
    auto scheduler =
        sched::Registry::instance().make("FT-ODDOML", plat, part);
    ExecutorOptions options;
    options.transport = TransportKind::kShm;
    options.tolerate_faults = true;
    // Runs inside the forked child: a REAL SIGKILL, not an exception.
    options.fault_hook = [](int worker, std::size_t step) {
      if (worker == 1 && step == 1) std::raise(SIGKILL);
    };
    const ExecutorReport report =
        execute_online(*scheduler, plat, part, a, b, c_faulty, options);
    EXPECT_TRUE(report.verified);
    EXPECT_EQ(report.workers_failed, 1);
    EXPECT_GT(report.transport_stats.arena_peak_slots, 0u);
    EXPECT_EQ(report.transport_stats.arena_leaked_slots, 0u);
  }

  EXPECT_EQ(matrix::Matrix::max_abs_diff(c_faulty, c_clean), 0.0);
}

TEST(ShmBackend, StrictModeSurfacesTheChildsRootCause) {
  HMXP_SKIP_UNDER_TSAN();
  const matrix::Partition part(40, 40, 40, 8);
  const auto plat = platform::Platform::homogeneous(3, 0.01, 0.002, 40);
  const auto a = random_matrix(40, 40, 31);
  const auto b = random_matrix(40, 40, 32);
  matrix::Matrix c(40, 40, 0.0);

  auto scheduler = sched::Registry::instance().make("ODDOML", plat, part);
  ExecutorOptions options;
  options.transport = TransportKind::kShm;
  options.faults.add(/*worker=*/1, /*at=*/0.0);
  try {
    execute_online(*scheduler, plat, part, a, b, c, options);
    FAIL() << "expected the scheduled fault to propagate";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("scheduled fault"),
              std::string::npos)
        << error.what();
  }
  // The run failed cleanly (children reaped, arena unmapped): a retry
  // on a fresh transport works.
  auto retry = sched::Registry::instance().make("ODDOML", plat, part);
  const ExecutorReport report =
      execute_online(*retry, plat, part, a, b, c, options = {});
  EXPECT_TRUE(report.verified);
}

}  // namespace
}  // namespace hmxp::runtime

// ---- the core facade on Backend::kShm ---------------------------------------

namespace hmxp::core {
namespace {

TEST(ShmBackend, CoreRunsCellsOnTheShmBackend) {
  HMXP_SKIP_UNDER_TSAN();
  const matrix::Partition part(40, 40, 56, 8);
  const auto plat = platform::Platform::homogeneous(3, 0.01, 0.002, 40);

  const RunReport simulated = run_algorithm("ORROML", plat, part);
  OnlineOptions online;
  online.backend = Backend::kShm;
  online.data_seed = 7;
  const RunReport executed =
      run_algorithm_online("ORROML", plat, part, online);

  EXPECT_EQ(executed.backend, Backend::kShm);
  EXPECT_TRUE(executed.online_verified);
  EXPECT_GT(executed.online_wall_seconds, 0.0);
  EXPECT_DOUBLE_EQ(executed.result.makespan, simulated.result.makespan);
  EXPECT_EQ(executed.result.decisions, simulated.result.decisions);

  // The experiment grid switches the whole run with one knob.
  ExperimentOptions grid;
  grid.threads = 1;
  grid.backend = Backend::kShm;
  grid.online.data_seed = 7;
  const auto results = run_experiment({Instance{"cell", plat, part}},
                                      {"ORROML", "ODDOML"}, grid);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_TRUE(results[0].cell_ok(0)) << results[0].errors[0];
  EXPECT_TRUE(results[0].cell_ok(1)) << results[0].errors[1];
  EXPECT_EQ(results[0].reports[0].backend, Backend::kShm);
  EXPECT_DOUBLE_EQ(results[0].reports[0].result.makespan,
                   simulated.result.makespan);
}

TEST(ShmBackend, BackendNamesParseBothWays) {
  EXPECT_STREQ(backend_name(Backend::kShm), "shm");
  EXPECT_EQ(parse_backend("shm"), Backend::kShm);
  EXPECT_EQ(parse_backend("SHMEM"), Backend::kShm);
  EXPECT_EQ(parse_backend("shared-memory"), Backend::kShm);
  EXPECT_EQ(parse_backend("process"), Backend::kProcess);
  EXPECT_EQ(parse_backend("bogus"), std::nullopt);
  EXPECT_STREQ(
      runtime::transport_kind_name(runtime::TransportKind::kShm), "shm");
  EXPECT_EQ(runtime::parse_transport_kind("shm"),
            runtime::TransportKind::kShm);
}

}  // namespace
}  // namespace hmxp::core
