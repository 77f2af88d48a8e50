// The one frame format of every forked worker's pipe: its socket
// (socketpair or loopback TCP) or its shm rings, and the handshake and
// death notices on every worker socket.
//
//   [u64 length][u8 FrameType][fields...]
//
// `length` counts everything after itself. Each payload field (a chunk's
// C, an operand batch's A and B, a result's C) starts with a home tag:
//
//   [u8 0][u64 n][n doubles]  inline: an owned vector, or a window the
//                             master lent, written row by row
//   [u8 1][u64 slot][u64 n]   a slot of the shm fleet's SharedArena
//
// The encoders pick the home from the payload. Inline payloads decode
// into vectors of the caller's BufferPool, so a steady-state master
// deserializes results without allocating; a slot reference decodes into
// a view of the same shared slot, and is corrupt without an arena.
// Integers and doubles are host-endian raw bytes: both ends of every
// pipe are the same machine by construction.
//
// Protocol v4. A run's frame ceiling (max_frame_bytes_for) follows from
// its largest payload P: a job has at most n_ab <= P k-steps, so no
// frame exceeds a result -- one payload plus a 32 B plan step and an 8 B
// step time per k-step -- or an operand batch of two payloads, plus
// 64 KiB of header slack.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "matrix/tuning.hpp"
#include "runtime/buffer_pool.hpp"
#include "runtime/messages.hpp"
#include "runtime/shared_arena.hpp"

namespace hmxp::runtime::serde {

enum class FrameType : std::uint8_t {
  kChunk = 1,    // master -> worker: ChunkMessage
  kOperand = 2,  // master -> worker: OperandMessage
  kResult = 3,   // worker -> master: ResultMessage
  kCredit = 4,   // worker -> master: one inbox slot freed (empty payload)
  kHello = 5,    // both ways: handshake (worker hello, master ack)
  kError = 6,    // death notice / handshake rejection with the what() text
  kCancel = 7,   // master -> worker: CancelMessage (seq only, no payload)
  kGoodbye = 8,  // master -> worker: clean shutdown (an EOF without a
                 // goodbye means the CONNECTION died)
};

using ByteBuffer = std::vector<std::uint8_t>;

/// Bytes of the [u64 length] prefix.
inline constexpr std::size_t kLengthBytes = sizeof(std::uint64_t);

/// Absolute ceiling on one frame, any run: beyond this is protocol
/// corruption whatever the geometry (per-run limits from
/// max_frame_bytes_for are far tighter).
inline constexpr std::uint64_t kMaxFrameBytes = 1ull << 40;

/// The largest legitimate frame for a run whose biggest single payload
/// is `max_payload_doubles` (from the partition geometry): see the top
/// of this file. Every pipe -- socket or ring, either direction --
/// derives its frame limit here, so a corrupt 8-byte length prefix can
/// never drive an allocation beyond what the run could legitimately
/// ship.
std::uint64_t max_frame_bytes_for(std::size_t max_payload_doubles);

/// Decodes and VALIDATES a length prefix: throws std::runtime_error
/// (naming both the declared length and the limit) when the declared
/// length is zero or exceeds `limit`. Call this -- never bare
/// decode_length -- before sizing any buffer from wire data.
std::uint64_t checked_frame_length(const std::uint8_t* data,
                                   std::uint64_t limit);

/// Cuts one byte pipe -- a socket or an shm ring -- into frames. Bytes
/// go in as they arrive, written in place (reserve, then commit what
/// landed); whole frames come out in order through next(), while the
/// bytes of an incomplete frame wait for the rest. No frame is ever
/// handed out before its last byte arrived.
class FrameSplitter {
 public:
  /// `limit` bounds every frame's declared length.
  explicit FrameSplitter(std::uint64_t limit) : limit_(limit) {}

  /// Room for `count` more bytes at the end of the buffer; commit(n)
  /// keeps the first n written there. Invalidates the last frame.
  std::uint8_t* reserve(std::size_t count);
  void commit(std::size_t count) { end_ += count; }
  /// The next whole frame's body (type byte onward), valid until the
  /// next reserve(); nullopt while none is complete. Throws
  /// std::runtime_error on a corrupt length prefix.
  std::optional<std::span<const std::uint8_t>> next();
  /// Drops every buffered byte.
  void clear() { begin_ = end_ = 0; }

 private:
  ByteBuffer bytes_;
  std::size_t begin_ = 0;  // first byte not yet handed out
  std::size_t end_ = 0;    // end of the committed bytes
  std::uint64_t limit_;
};

/// Appends a complete frame (length prefix + type + fields) for the
/// message to `out`. The encoders never clear `out`, so a caller can
/// batch frames into one write.
void encode_chunk(const ChunkMessage& message, ByteBuffer& out);
void encode_operand(const OperandMessage& message, ByteBuffer& out);
void encode_result(const ResultMessage& message, ByteBuffer& out);
/// A chunk, operand batch or cancel: whichever `message` holds.
void encode(const WorkerMessage& message, ByteBuffer& out);
/// Payload-free control frame (kCredit, kGoodbye).
void encode_control(FrameType type, ByteBuffer& out);

/// Handshake identity: the magic marks a peer as an hmxp worker at all,
/// the version gates the frame layout. Bump kProtocolVersion on ANY
/// wire-visible change; a mismatched peer then gets one clean error
/// naming both versions instead of silently misparsing the next frame.
inline constexpr std::uint32_t kProtocolMagic = 0x50584d48;  // "HMXP"
inline constexpr std::uint32_t kProtocolVersion = 4;

/// Bootstrap handshake payload: protocol identity (magic + version),
/// the worker's identity token and advertised host resources, and its
/// full kernel configuration -- dispatch tier, micro-kernel
/// variant, and the blocking parameters -- so the master can verify a
/// forked worker computes with the IDENTICAL configuration it captured
/// before forking. A divergent worker (stale env pin, different
/// blocking pin) would silently produce different tile timings; the
/// handshake turns that into an immediate, attributable failure.
struct HelloFrame {
  std::uint32_t magic = kProtocolMagic;
  std::uint32_t version = kProtocolVersion;
  /// Per-worker identity: the master's Acceptor stages every hello by
  /// it, and a reconnecting TCP worker presents the same token to be
  /// re-admitted to its endpoint instead of treated as a stranger.
  std::uint64_t token = 0;
  /// Advertised host resources (hardware threads, physical MiB): the
  /// per-client capability report a real cluster master tracks.
  std::uint32_t cores = 0;
  std::uint64_t memory_mb = 0;
  std::uint8_t kernel_tier = 0;
  std::uint8_t kernel_variant = 0;
  std::uint64_t mc = 0;
  std::uint64_t kc = 0;
  std::uint64_t nc = 0;
  friend bool operator==(const HelloFrame&, const HelloFrame&) = default;
  /// True when the peer runs the same kernel configuration (identity,
  /// resources and token excluded: those legitimately differ per host).
  bool same_kernel_config(const HelloFrame& other) const {
    return kernel_tier == other.kernel_tier &&
           kernel_variant == other.kernel_variant && mc == other.mc &&
           kc == other.kc && nc == other.nc;
  }
};

void encode_hello(const HelloFrame& hello, ByteBuffer& out);
/// The hello THIS build answers for `config`: protocol identity plus
/// the advertised host resources (hardware threads, physical memory).
/// The one construction every spawning transport shares -- a worker
/// always advertises the configuration it ACTUALLY runs, so the caller
/// re-reads current_kernel_config() rather than echoing the master's.
HelloFrame local_hello(const matrix::KernelConfig& config);
/// Death notice: a dying worker ships its exception text so the master
/// can rethrow the real root cause (a child cannot share an
/// exception_ptr across the fork boundary).
void encode_error(const std::string& what, ByteBuffer& out);

/// Frame length declared by a complete prefix at `data` (which must
/// hold at least kLengthBytes). RAW: trusts the wire bytes -- use
/// checked_frame_length anywhere the value sizes an allocation.
std::uint64_t decode_length(const std::uint8_t* data);

/// Decoders for one frame BODY (type byte + fields, i.e. `length`
/// bytes starting after the prefix). They validate the type byte, every
/// interior length and every home tag; a truncated or corrupt frame
/// throws std::runtime_error, and so does a slot reference when `arena`
/// is null. Inline payloads are acquired from `pool`; a slot reference
/// is checked against `arena` and decodes into a view that OWNS the
/// slot (Payload releases it), so the encoding side detaches its own
/// view once the frame is on its way.
ChunkMessage decode_chunk(const std::uint8_t* body, std::size_t size,
                          BufferPool& pool, SharedArena* arena = nullptr);
OperandMessage decode_operand(const std::uint8_t* body, std::size_t size,
                              BufferPool& pool, SharedArena* arena = nullptr);
ResultMessage decode_result(const std::uint8_t* body, std::size_t size,
                            BufferPool& pool, SharedArena* arena = nullptr);
/// A worker's inbound frame: the chunk, operand batch or cancel it
/// carries, or nullopt at the master's kGoodbye. Any other type throws.
std::optional<WorkerMessage> decode_inbound(const std::uint8_t* body,
                                            std::size_t size,
                                            BufferPool& pool,
                                            SharedArena* arena = nullptr);
/// Type byte of a frame body (size must be >= 1).
FrameType frame_type(const std::uint8_t* body, std::size_t size);
/// Kernel configuration of a kHello body.
HelloFrame decode_hello(const std::uint8_t* body, std::size_t size);
/// Exception text of a kError body.
std::string decode_error(const std::uint8_t* body, std::size_t size);

}  // namespace hmxp::runtime::serde
