#include "runtime/serde.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <thread>

#include <unistd.h>

namespace hmxp::runtime::serde {

namespace {

void require(bool ok, const char* what) {
  if (!ok) throw std::runtime_error(std::string("corrupt frame: ") + what);
}

std::string to_hex(std::uint32_t value) {
  static const char digits[] = "0123456789abcdef";
  std::string hex(8, '0');
  for (int i = 7; i >= 0; --i, value >>= 4)
    hex[static_cast<std::size_t>(i)] = digits[value & 0xf];
  return hex;
}

// ---- writer -----------------------------------------------------------------

class Writer {
 public:
  explicit Writer(ByteBuffer& out) : out_(out) {}

  void u8(std::uint8_t value) { out_.push_back(value); }
  void u32(std::uint32_t value) { raw(&value, sizeof value); }
  void u64(std::uint64_t value) { raw(&value, sizeof value); }
  void i64(std::int64_t value) { raw(&value, sizeof value); }
  void f64(double value) { raw(&value, sizeof value); }
  void doubles(const double* values, std::size_t count) {
    u64(count);
    if (count > 0) raw(values, count * sizeof(double));
  }
  void doubles(const std::vector<double>& values) {
    doubles(values.data(), values.size());
  }
  /// The same layout for a payload in any home: a lent window's rows
  /// go straight into the frame, so its bytes match its dense copy's.
  void doubles(const Payload& payload) {
    u64(payload.size());
    payload.for_each_row([this](const double* row, std::size_t count) {
      raw(row, count * sizeof(double));
    });
  }
  /// An arena payload as a (slot, length) descriptor -- the whole point
  /// of the shm transport: bytes stay in the slot, only this crosses.
  void slot_ref(const Payload& payload) {
    u64(payload.slot());
    u64(payload.size());
  }

 private:
  void raw(const void* data, std::size_t size) {
    const auto* bytes = static_cast<const std::uint8_t*>(data);
    out_.insert(out_.end(), bytes, bytes + size);
  }

  ByteBuffer& out_;
};

// ---- reader -----------------------------------------------------------------

class Reader {
 public:
  Reader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}

  std::uint8_t u8() {
    require(cursor_ + 1 <= size_, "truncated u8");
    return data_[cursor_++];
  }
  std::uint32_t u32() {
    std::uint32_t value;
    raw(&value, sizeof value);
    return value;
  }
  std::uint64_t u64() {
    std::uint64_t value;
    raw(&value, sizeof value);
    return value;
  }
  std::int64_t i64() {
    std::int64_t value;
    raw(&value, sizeof value);
    return value;
  }
  double f64() {
    double value;
    raw(&value, sizeof value);
    return value;
  }
  std::vector<double> doubles(BufferPool& pool) {
    const std::uint64_t count = u64();
    // Divide, don't multiply: a hostile count must not overflow the check.
    require(count <= (size_ - cursor_) / sizeof(double),
            "truncated doubles");
    std::vector<double> values =
        pool.acquire(static_cast<std::size_t>(count));
    if (count > 0) raw(values.data(), count * sizeof(double));
    return values;
  }
  /// Same, off-pool: for small per-chunk bookkeeping vectors whose
  /// storage is not worth recycling (matches the thread path, where
  /// step_seconds is a per-chunk allocation outside the pool's scope).
  std::vector<double> doubles_plain() {
    const std::uint64_t count = u64();
    require(count <= (size_ - cursor_) / sizeof(double),
            "truncated doubles");
    std::vector<double> values(static_cast<std::size_t>(count));
    if (count > 0) raw(values.data(), count * sizeof(double));
    return values;
  }
  /// Decodes a (slot, length) descriptor into a view of the shared
  /// slot, validating both against the arena's geometry.
  Payload slot_ref(SharedArena& arena) {
    const std::uint64_t slot = u64();
    const std::uint64_t count = u64();
    require(slot < arena.slot_count(), "arena slot out of range");
    require(count <= arena.slot_doubles(), "arena payload overflows slot");
    return Payload::arena_view(&arena, static_cast<std::uint32_t>(slot),
                               arena.slot_data(static_cast<std::uint32_t>(
                                   slot)),
                               static_cast<std::size_t>(count));
  }
  void done() const { require(cursor_ == size_, "trailing frame bytes"); }

 private:
  void raw(void* out, std::size_t size) {
    require(cursor_ + size <= size_, "truncated field");
    std::memcpy(out, data_ + cursor_, size);
    cursor_ += size;
  }

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t cursor_ = 0;
};

// ---- plan (shared by chunk and result frames) -------------------------------

void write_plan(Writer& writer, const sim::ChunkPlan& plan) {
  writer.u64(plan.rect.i0);
  writer.u64(plan.rect.i1);
  writer.u64(plan.rect.j0);
  writer.u64(plan.rect.j1);
  writer.u64(plan.steps.size());
  for (const sim::StepPlan& step : plan.steps) {
    writer.i64(step.operand_blocks);
    writer.i64(step.updates);
    writer.u64(step.k_begin);
    writer.u64(step.k_end);
  }
  writer.i64(plan.prefetch_depth);
  writer.i64(plan.peak_override);
}

sim::ChunkPlan read_plan(Reader& reader) {
  sim::ChunkPlan plan;
  plan.rect.i0 = static_cast<std::size_t>(reader.u64());
  plan.rect.i1 = static_cast<std::size_t>(reader.u64());
  plan.rect.j0 = static_cast<std::size_t>(reader.u64());
  plan.rect.j1 = static_cast<std::size_t>(reader.u64());
  const std::uint64_t steps = reader.u64();
  require(steps <= 1u << 24, "absurd step count");
  plan.steps.resize(static_cast<std::size_t>(steps));
  for (sim::StepPlan& step : plan.steps) {
    step.operand_blocks = reader.i64();
    step.updates = reader.i64();
    step.k_begin = static_cast<std::size_t>(reader.u64());
    step.k_end = static_cast<std::size_t>(reader.u64());
  }
  plan.prefetch_depth = static_cast<int>(reader.i64());
  plan.peak_override = reader.i64();
  return plan;
}

/// Reserves the length prefix, runs `fill`, then patches the prefix
/// with the number of bytes the body occupied.
template <typename Fill>
void frame(ByteBuffer& out, Fill&& fill) {
  const std::size_t prefix_at = out.size();
  out.resize(out.size() + kLengthBytes);
  fill();
  const std::uint64_t length = out.size() - prefix_at - kLengthBytes;
  std::memcpy(out.data() + prefix_at, &length, sizeof length);
}

}  // namespace

void encode_chunk(const ChunkMessage& message, ByteBuffer& out) {
  frame(out, [&] {
    Writer writer(out);
    writer.u8(static_cast<std::uint8_t>(FrameType::kChunk));
    write_plan(writer, message.plan);
    writer.u64(message.element_rows);
    writer.u64(message.element_cols);
    // seq travels BEFORE the payload: a decoder that throws past this
    // point would destroy an already-acquired payload (returning a pool
    // vector -- or worse, an arena slot the sender still owns -- behind
    // the caller's back), so every fallible field precedes acquisition.
    writer.u64(message.seq);
    writer.doubles(message.c);
  });
}

void encode_operand(const OperandMessage& message, ByteBuffer& out) {
  frame(out, [&] {
    Writer writer(out);
    writer.u8(static_cast<std::uint8_t>(FrameType::kOperand));
    writer.u64(message.step);
    writer.u64(message.k_elem_begin);
    writer.u64(message.k_elems);
    writer.doubles(message.a);
    writer.doubles(message.b);
  });
}

void encode_result(const ResultMessage& message, ByteBuffer& out) {
  frame(out, [&] {
    Writer writer(out);
    writer.u8(static_cast<std::uint8_t>(FrameType::kResult));
    write_plan(writer, message.plan);
    writer.u64(message.element_rows);
    writer.u64(message.element_cols);
    writer.u64(message.seq);  // before the payload (see encode_chunk)
    writer.doubles(message.c);
    writer.u64(message.updates_performed);
    writer.doubles(message.step_seconds);
  });
}

void encode_cancel(const CancelMessage& message, ByteBuffer& out) {
  frame(out, [&] {
    Writer writer(out);
    writer.u8(static_cast<std::uint8_t>(FrameType::kCancel));
    writer.u64(message.seq);
  });
}

void encode_control(FrameType type, ByteBuffer& out) {
  frame(out, [&] {
    Writer writer(out);
    writer.u8(static_cast<std::uint8_t>(type));
  });
}

void encode_hello(const HelloFrame& hello, ByteBuffer& out) {
  frame(out, [&] {
    Writer writer(out);
    writer.u8(static_cast<std::uint8_t>(FrameType::kHello));
    writer.u32(hello.magic);
    writer.u32(hello.version);
    writer.u64(hello.token);
    writer.u32(hello.cores);
    writer.u64(hello.memory_mb);
    writer.u8(hello.kernel_tier);
    writer.u8(hello.kernel_variant);
    writer.u64(hello.mc);
    writer.u64(hello.kc);
    writer.u64(hello.nc);
  });
}

HelloFrame local_hello(const matrix::KernelConfig& config) {
  HelloFrame hello;
  hello.cores = std::max(1u, std::thread::hardware_concurrency());
  const long pages = ::sysconf(_SC_PHYS_PAGES);
  const long page_size = ::sysconf(_SC_PAGESIZE);
  if (pages > 0 && page_size > 0)
    hello.memory_mb = (static_cast<std::uint64_t>(pages) *
                       static_cast<std::uint64_t>(page_size)) >>
                      20;
  hello.kernel_tier = static_cast<std::uint8_t>(config.active_tier);
  hello.kernel_variant = static_cast<std::uint8_t>(config.active_variant);
  hello.mc = static_cast<std::uint64_t>(config.blocking.mc);
  hello.kc = static_cast<std::uint64_t>(config.blocking.kc);
  hello.nc = static_cast<std::uint64_t>(config.blocking.nc);
  return hello;
}

void encode_error(const std::string& what, ByteBuffer& out) {
  frame(out, [&] {
    Writer writer(out);
    writer.u8(static_cast<std::uint8_t>(FrameType::kError));
    writer.u64(what.size());
    for (const char character : what)
      writer.u8(static_cast<std::uint8_t>(character));
  });
}

std::uint64_t decode_length(const std::uint8_t* data) {
  std::uint64_t length;
  std::memcpy(&length, data, sizeof length);
  return length;
}

std::uint64_t max_frame_bytes_for(std::size_t max_payload_doubles) {
  // An operand batch ships two payloads (A and B); 64 KiB covers every
  // header field with room to spare.
  const std::uint64_t bytes =
      2 * static_cast<std::uint64_t>(max_payload_doubles) * sizeof(double) +
      (1ull << 16);
  return std::min(bytes, kMaxFrameBytes);
}

std::uint64_t checked_frame_length(const std::uint8_t* data,
                                   std::uint64_t limit) {
  const std::uint64_t length = decode_length(data);
  if (length == 0 || length > limit)
    throw std::runtime_error(
        "corrupt frame length " + std::to_string(length) + " (limit " +
        std::to_string(limit) + " bytes): refusing to allocate");
  return length;
}

FrameType frame_type(const std::uint8_t* body, std::size_t size) {
  require(size >= 1, "empty frame");
  const std::uint8_t type = body[0];
  require(type >= static_cast<std::uint8_t>(FrameType::kChunk) &&
              type <= static_cast<std::uint8_t>(FrameType::kGoodbye),
          "unknown frame type");
  return static_cast<FrameType>(type);
}

ChunkMessage decode_chunk(const std::uint8_t* body, std::size_t size,
                          BufferPool& pool) {
  require(frame_type(body, size) == FrameType::kChunk, "not a chunk frame");
  Reader reader(body + 1, size - 1);
  ChunkMessage message;
  message.plan = read_plan(reader);
  message.element_rows = static_cast<std::size_t>(reader.u64());
  message.element_cols = static_cast<std::size_t>(reader.u64());
  message.seq = reader.u64();
  message.c = reader.doubles(pool);
  reader.done();
  require(message.c.size() == message.element_rows * message.element_cols,
          "chunk payload shape mismatch");
  return message;
}

OperandMessage decode_operand(const std::uint8_t* body, std::size_t size,
                              BufferPool& pool) {
  require(frame_type(body, size) == FrameType::kOperand,
          "not an operand frame");
  Reader reader(body + 1, size - 1);
  OperandMessage message;
  message.step = static_cast<std::size_t>(reader.u64());
  message.k_elem_begin = static_cast<std::size_t>(reader.u64());
  message.k_elems = static_cast<std::size_t>(reader.u64());
  message.a = reader.doubles(pool);
  message.b = reader.doubles(pool);
  reader.done();
  return message;
}

ResultMessage decode_result(const std::uint8_t* body, std::size_t size,
                            BufferPool& pool) {
  require(frame_type(body, size) == FrameType::kResult,
          "not a result frame");
  Reader reader(body + 1, size - 1);
  ResultMessage message;
  message.plan = read_plan(reader);
  message.element_rows = static_cast<std::size_t>(reader.u64());
  message.element_cols = static_cast<std::size_t>(reader.u64());
  message.seq = reader.u64();
  message.c = reader.doubles(pool);
  message.updates_performed = static_cast<std::size_t>(reader.u64());
  message.step_seconds = reader.doubles_plain();
  reader.done();
  require(message.c.size() == message.element_rows * message.element_cols,
          "result payload shape mismatch");
  return message;
}

CancelMessage decode_cancel(const std::uint8_t* body, std::size_t size) {
  require(frame_type(body, size) == FrameType::kCancel,
          "not a cancel frame");
  Reader reader(body + 1, size - 1);
  CancelMessage message;
  message.seq = reader.u64();
  reader.done();
  return message;
}

HelloFrame decode_hello(const std::uint8_t* body, std::size_t size) {
  require(frame_type(body, size) == FrameType::kHello, "not a hello frame");
  Reader reader(body, size);
  reader.u8();  // frame type, already validated
  HelloFrame hello;
  // Identity gates layout: magic first (is this an hmxp worker at
  // all?), version second (does it speak THIS frame layout?), and only
  // then the fields whose layout the version vouches for. Each mismatch
  // is its own clean error naming both sides.
  hello.magic = reader.u32();
  if (hello.magic != kProtocolMagic)
    throw std::runtime_error(
        "handshake magic mismatch (got 0x" + to_hex(hello.magic) +
        ", want 0x" + to_hex(kProtocolMagic) +
        "): peer is not an hmxp worker");
  hello.version = reader.u32();
  if (hello.version != kProtocolVersion)
    throw std::runtime_error(
        "protocol version mismatch: peer speaks v" +
        std::to_string(hello.version) + ", this build speaks v" +
        std::to_string(kProtocolVersion));
  hello.token = reader.u64();
  hello.cores = reader.u32();
  hello.memory_mb = reader.u64();
  hello.kernel_tier = reader.u8();
  hello.kernel_variant = reader.u8();
  hello.mc = reader.u64();
  hello.kc = reader.u64();
  hello.nc = reader.u64();
  reader.done();
  return hello;
}

// ---- descriptor frames (shm transport) --------------------------------------

namespace {

void require_arena_payload(const Payload& payload, const char* what) {
  if (!payload.in_arena())
    throw std::logic_error(std::string("shm frame payload not in arena: ") +
                           what);
}

}  // namespace

void encode_chunk_ref(const ChunkMessage& message, ByteBuffer& out) {
  require_arena_payload(message.c, "chunk C");
  frame(out, [&] {
    Writer writer(out);
    writer.u8(static_cast<std::uint8_t>(FrameType::kChunkRef));
    write_plan(writer, message.plan);
    writer.u64(message.element_rows);
    writer.u64(message.element_cols);
    writer.u64(message.seq);  // before the slot ref (see encode_chunk)
    writer.slot_ref(message.c);
  });
}

void encode_operand_ref(const OperandMessage& message, ByteBuffer& out) {
  require_arena_payload(message.a, "operand A");
  require_arena_payload(message.b, "operand B");
  frame(out, [&] {
    Writer writer(out);
    writer.u8(static_cast<std::uint8_t>(FrameType::kOperandRef));
    writer.u64(message.step);
    writer.u64(message.k_elem_begin);
    writer.u64(message.k_elems);
    writer.slot_ref(message.a);
    writer.slot_ref(message.b);
  });
}

void encode_result_ref(const ResultMessage& message, ByteBuffer& out) {
  require_arena_payload(message.c, "result C");
  frame(out, [&] {
    Writer writer(out);
    writer.u8(static_cast<std::uint8_t>(FrameType::kResultRef));
    write_plan(writer, message.plan);
    writer.u64(message.element_rows);
    writer.u64(message.element_cols);
    writer.u64(message.seq);  // before the slot ref (see encode_chunk)
    writer.slot_ref(message.c);
    writer.u64(message.updates_performed);
    writer.doubles(message.step_seconds);
  });
}

ChunkMessage decode_chunk_ref(const std::uint8_t* body, std::size_t size,
                              SharedArena& arena) {
  require(frame_type(body, size) == FrameType::kChunkRef,
          "not a chunk-ref frame");
  Reader reader(body + 1, size - 1);
  ChunkMessage message;
  message.plan = read_plan(reader);
  message.element_rows = static_cast<std::size_t>(reader.u64());
  message.element_cols = static_cast<std::size_t>(reader.u64());
  message.seq = reader.u64();
  message.c = reader.slot_ref(arena);
  reader.done();
  require(message.c.size() == message.element_rows * message.element_cols,
          "chunk payload shape mismatch");
  return message;
}

OperandMessage decode_operand_ref(const std::uint8_t* body, std::size_t size,
                                  SharedArena& arena) {
  require(frame_type(body, size) == FrameType::kOperandRef,
          "not an operand-ref frame");
  Reader reader(body + 1, size - 1);
  OperandMessage message;
  message.step = static_cast<std::size_t>(reader.u64());
  message.k_elem_begin = static_cast<std::size_t>(reader.u64());
  message.k_elems = static_cast<std::size_t>(reader.u64());
  message.a = reader.slot_ref(arena);
  message.b = reader.slot_ref(arena);
  reader.done();
  return message;
}

ResultMessage decode_result_ref(const std::uint8_t* body, std::size_t size,
                                SharedArena& arena) {
  require(frame_type(body, size) == FrameType::kResultRef,
          "not a result-ref frame");
  Reader reader(body + 1, size - 1);
  ResultMessage message;
  message.plan = read_plan(reader);
  message.element_rows = static_cast<std::size_t>(reader.u64());
  message.element_cols = static_cast<std::size_t>(reader.u64());
  message.seq = reader.u64();
  message.c = reader.slot_ref(arena);
  message.updates_performed = static_cast<std::size_t>(reader.u64());
  message.step_seconds = reader.doubles_plain();
  reader.done();
  require(message.c.size() == message.element_rows * message.element_cols,
          "result payload shape mismatch");
  return message;
}

std::string decode_error(const std::uint8_t* body, std::size_t size) {
  require(frame_type(body, size) == FrameType::kError, "not an error frame");
  Reader reader(body + 1, size - 1);
  const std::uint64_t length = reader.u64();
  require(length == size - 1 - sizeof(std::uint64_t), "error frame size");
  std::string what;
  what.reserve(static_cast<std::size_t>(length));
  for (std::uint64_t i = 0; i < length; ++i)
    what.push_back(static_cast<char>(reader.u8()));
  reader.done();
  return what;
}

}  // namespace hmxp::runtime::serde
