#include "runtime/serde.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <thread>
#include <type_traits>
#include <variant>

#include <unistd.h>

namespace hmxp::runtime::serde {

namespace {

/// A payload field's home tag (see the top of serde.hpp).
constexpr std::uint8_t kInlineHome = 0;
constexpr std::uint8_t kArenaHome = 1;

/// Wire bytes of one plan step: operand_blocks, updates, k_begin, k_end.
constexpr std::size_t kPlanStepBytes =
    2 * sizeof(std::int64_t) + 2 * sizeof(std::uint64_t);

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
  void doubles(const std::vector<double>& values) {
    u64(values.size());
    raw(values.data(), values.size() * sizeof(double));
  }
  /// A payload field: an arena view as its slot reference -- the bytes
  /// stay in the slot -- anything else inline, a lent window row by row
  /// so that its bytes match its dense copy's.
  void payload(const Payload& payload) {
    if (payload.in_arena()) {
      u8(kArenaHome);
      u64(payload.slot());
      u64(payload.size());
      return;
    }
    u8(kInlineHome);
    u64(payload.size());
    payload.for_each_row([this](const double* row, std::size_t count) {
      raw(row, count * sizeof(double));
    });
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
  /// [u64 n][n doubles] into a vector of `pool`, or off-pool when it
  /// is null: for small per-chunk bookkeeping vectors whose storage is
  /// not worth recycling (matches the thread path, where step_seconds
  /// is a per-chunk allocation outside the pool's scope).
  std::vector<double> doubles(BufferPool* pool) {
    const auto count = static_cast<std::size_t>(u64());
    // Divide, don't multiply: a hostile count must not overflow the check.
    require(count <= remaining() / sizeof(double), "truncated doubles");
    std::vector<double> values =
        pool != nullptr ? pool->acquire(count) : std::vector<double>(count);
    if (count > 0) raw(values.data(), count * sizeof(double));
    return values;
  }
  /// A payload field in either home: inline doubles into a `pool`
  /// vector, a slot reference into a view of `arena`'s slot, checked
  /// against the arena's geometry.
  Payload payload(BufferPool& pool, SharedArena* arena) {
    const std::uint8_t home = u8();
    if (home == kInlineHome) return doubles(&pool);
    require(home == kArenaHome, "unknown payload home");
    require(arena != nullptr, "arena slot reference without an arena");
    const std::uint64_t slot = u64();
    const std::uint64_t count = u64();
    require(slot < arena->slot_count(), "arena slot out of range");
    require(count <= arena->slot_doubles(), "arena payload overflows slot");
    const auto index = static_cast<std::uint32_t>(slot);
    return Payload::arena_view(arena, index, arena->slot_data(index),
                               static_cast<std::size_t>(count));
  }
  std::size_t remaining() const { return size_ - cursor_; }
  void done() const { require(cursor_ == size_, "trailing frame bytes"); }

 private:
  void raw(void* out, std::size_t size) {
    require(size <= remaining(), "truncated field");
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
  // The frame must hold the steps it declares BEFORE they are sized: a
  // corrupt count must not allocate more than the frame itself.
  require(steps <= reader.remaining() / kPlanStepBytes, "truncated plan");
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

/// Reserves the length prefix, writes the type byte, runs `fill`, then
/// patches the prefix with the number of bytes the body occupied.
template <typename Fill>
void frame(ByteBuffer& out, FrameType type, Fill&& fill) {
  const std::size_t prefix_at = out.size();
  out.resize(out.size() + kLengthBytes);
  Writer writer(out);
  writer.u8(static_cast<std::uint8_t>(type));
  fill(writer);
  const std::uint64_t length = out.size() - prefix_at - kLengthBytes;
  std::memcpy(out.data() + prefix_at, &length, sizeof length);
}

/// A reader over the fields of a frame body whose type must be `type`.
Reader body_reader(const std::uint8_t* body, std::size_t size,
                   FrameType type) {
  require(frame_type(body, size) == type, "unexpected frame type");
  return Reader(body + 1, size - 1);
}

void encode_cancel(const CancelMessage& message, ByteBuffer& out) {
  frame(out, FrameType::kCancel,
        [&](Writer& writer) { writer.u64(message.seq); });
}

CancelMessage decode_cancel(const std::uint8_t* body, std::size_t size) {
  Reader reader = body_reader(body, size, FrameType::kCancel);
  CancelMessage message;
  message.seq = reader.u64();
  reader.done();
  return message;
}

}  // namespace

// ---- frame splitter ---------------------------------------------------------

std::uint8_t* FrameSplitter::reserve(std::size_t count) {
  // Frames already handed out make room for the new bytes.
  if (begin_ > 0) {
    std::memmove(bytes_.data(), bytes_.data() + begin_, end_ - begin_);
    end_ -= begin_;
    begin_ = 0;
  }
  if (bytes_.size() < end_ + count) bytes_.resize(end_ + count);
  return bytes_.data() + end_;
}

std::optional<std::span<const std::uint8_t>> FrameSplitter::next() {
  if (end_ - begin_ < kLengthBytes) return std::nullopt;
  const std::uint64_t length =
      checked_frame_length(bytes_.data() + begin_, limit_);
  if (end_ - begin_ - kLengthBytes < length) return std::nullopt;
  const std::uint8_t* body = bytes_.data() + begin_ + kLengthBytes;
  begin_ += kLengthBytes + static_cast<std::size_t>(length);
  return std::span<const std::uint8_t>(body, static_cast<std::size_t>(length));
}

// ---- encoders ---------------------------------------------------------------

void encode_chunk(const ChunkMessage& message, ByteBuffer& out) {
  frame(out, FrameType::kChunk, [&](Writer& writer) {
    write_plan(writer, message.plan);
    writer.u64(message.element_rows);
    writer.u64(message.element_cols);
    // seq travels BEFORE the payload: a decoder that throws past this
    // point would destroy an already-decoded payload (returning a pool
    // vector -- or worse, an arena slot the sender still owns -- behind
    // the caller's back), so every fallible field precedes it.
    writer.u64(message.seq);
    writer.payload(message.c);
  });
}

void encode_operand(const OperandMessage& message, ByteBuffer& out) {
  frame(out, FrameType::kOperand, [&](Writer& writer) {
    writer.u64(message.step);
    writer.u64(message.k_elem_begin);
    writer.u64(message.k_elems);
    writer.payload(message.a);
    writer.payload(message.b);
  });
}

void encode_result(const ResultMessage& message, ByteBuffer& out) {
  frame(out, FrameType::kResult, [&](Writer& writer) {
    write_plan(writer, message.plan);
    writer.u64(message.element_rows);
    writer.u64(message.element_cols);
    writer.u64(message.seq);  // before the payload (see encode_chunk)
    writer.payload(message.c);
    writer.u64(message.updates_performed);
    writer.doubles(message.step_seconds);
  });
}

void encode(const WorkerMessage& message, ByteBuffer& out) {
  std::visit(
      [&](const auto& held) {
        using Held = std::decay_t<decltype(held)>;
        if constexpr (std::is_same_v<Held, ChunkMessage>) {
          encode_chunk(held, out);
        } else if constexpr (std::is_same_v<Held, OperandMessage>) {
          encode_operand(held, out);
        } else {
          encode_cancel(held, out);
        }
      },
      message);
}

void encode_control(FrameType type, ByteBuffer& out) {
  frame(out, type, [](Writer&) {});
}

void encode_hello(const HelloFrame& hello, ByteBuffer& out) {
  frame(out, FrameType::kHello, [&](Writer& writer) {
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
  frame(out, FrameType::kError, [&](Writer& writer) {
    writer.u64(what.size());
    for (const char character : what)
      writer.u8(static_cast<std::uint8_t>(character));
  });
}

// ---- lengths ----------------------------------------------------------------

std::uint64_t decode_length(const std::uint8_t* data) {
  std::uint64_t length;
  std::memcpy(&length, data, sizeof length);
  return length;
}

std::uint64_t max_frame_bytes_for(std::size_t max_payload_doubles) {
  // A job's k-steps number at most n_ab <= P. An operand batch carries
  // two payloads; a result one payload, plus a plan step and a step
  // time per k-step (a chunk carries less). 64 KiB covers the fixed
  // header fields with room to spare.
  const std::uint64_t per_p =
      std::max(2 * sizeof(double),
               sizeof(double) + kPlanStepBytes + sizeof(double));
  const std::uint64_t p =
      std::min<std::uint64_t>(max_payload_doubles, kMaxFrameBytes / per_p);
  return std::min<std::uint64_t>(per_p * p + (1ull << 16), kMaxFrameBytes);
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

// ---- decoders ---------------------------------------------------------------

FrameType frame_type(const std::uint8_t* body, std::size_t size) {
  require(size >= 1, "empty frame");
  const std::uint8_t type = body[0];
  require(type >= static_cast<std::uint8_t>(FrameType::kChunk) &&
              type <= static_cast<std::uint8_t>(FrameType::kGoodbye),
          "unknown frame type");
  return static_cast<FrameType>(type);
}

ChunkMessage decode_chunk(const std::uint8_t* body, std::size_t size,
                          BufferPool& pool, SharedArena* arena) {
  Reader reader = body_reader(body, size, FrameType::kChunk);
  ChunkMessage message;
  message.plan = read_plan(reader);
  message.element_rows = static_cast<std::size_t>(reader.u64());
  message.element_cols = static_cast<std::size_t>(reader.u64());
  message.seq = reader.u64();
  message.c = reader.payload(pool, arena);
  reader.done();
  require(message.c.size() == message.element_rows * message.element_cols,
          "chunk payload shape mismatch");
  return message;
}

OperandMessage decode_operand(const std::uint8_t* body, std::size_t size,
                              BufferPool& pool, SharedArena* arena) {
  Reader reader = body_reader(body, size, FrameType::kOperand);
  OperandMessage message;
  message.step = static_cast<std::size_t>(reader.u64());
  message.k_elem_begin = static_cast<std::size_t>(reader.u64());
  message.k_elems = static_cast<std::size_t>(reader.u64());
  message.a = reader.payload(pool, arena);
  message.b = reader.payload(pool, arena);
  reader.done();
  return message;
}

ResultMessage decode_result(const std::uint8_t* body, std::size_t size,
                            BufferPool& pool, SharedArena* arena) {
  Reader reader = body_reader(body, size, FrameType::kResult);
  ResultMessage message;
  message.plan = read_plan(reader);
  message.element_rows = static_cast<std::size_t>(reader.u64());
  message.element_cols = static_cast<std::size_t>(reader.u64());
  message.seq = reader.u64();
  message.c = reader.payload(pool, arena);
  message.updates_performed = static_cast<std::size_t>(reader.u64());
  message.step_seconds = reader.doubles(nullptr);
  reader.done();
  require(message.c.size() == message.element_rows * message.element_cols,
          "result payload shape mismatch");
  return message;
}

std::optional<WorkerMessage> decode_inbound(const std::uint8_t* body,
                                            std::size_t size,
                                            BufferPool& pool,
                                            SharedArena* arena) {
  switch (frame_type(body, size)) {
    case FrameType::kChunk:
      return decode_chunk(body, size, pool, arena);
    case FrameType::kOperand:
      return decode_operand(body, size, pool, arena);
    case FrameType::kCancel:
      return decode_cancel(body, size);
    case FrameType::kGoodbye:
      return std::nullopt;
    default:
      throw std::runtime_error("unexpected inbound frame type");
  }
}

HelloFrame decode_hello(const std::uint8_t* body, std::size_t size) {
  Reader reader = body_reader(body, size, FrameType::kHello);
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

std::string decode_error(const std::uint8_t* body, std::size_t size) {
  Reader reader = body_reader(body, size, FrameType::kError);
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
