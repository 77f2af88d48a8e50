// Frame serialization for every worker socket and ring: the stream
// transport's data plane (socketpair and loopback-TCP workers), the shm
// transport's descriptor frames, and the handshake and death notices of
// every forked worker.
//
// Every message is one length-prefixed frame:
//
//   [u64 length][u8 FrameType][payload...]
//
// where `length` counts everything after itself (type byte included).
// Integers and doubles are host-endian raw bytes: both ends of every
// stream are the same machine by construction (a cross-machine MPI/ssh
// transport would pin endianness here and change nothing else).
//
// The encoders take a payload in any home: a window the master lent is
// written row by row straight into the frame, byte for byte what its
// dense copy would encode to. Decoded payloads are dense element
// vectors checked out of the caller's BufferPool, so a steady-state
// master deserializes results without allocating.
#pragma once

#include <cstddef>
#include <cstdint>
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
  // Descriptor twins for the zero-copy shm transport: the same message
  // metadata, but payloads are (arena slot, length) references into the
  // run's SharedArena instead of inline bytes.
  kChunkRef = 7,    // master -> worker: ChunkMessage, C in an arena slot
  kOperandRef = 8,  // master -> worker: OperandMessage, A/B in arena slots
  kResultRef = 9,   // worker -> master: ResultMessage, C in an arena slot
  kCancel = 10,     // master -> worker: CancelMessage (seq only, no payload)
  kGoodbye = 11,    // master -> worker: clean shutdown (an EOF without a
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
/// is `max_payload_doubles` (from the partition geometry): one operand
/// batch ships TWO payloads (A and B), plus generous header slack.
/// Every transport derives its per-endpoint frame limit here, so a
/// corrupt 8-byte length prefix can never drive an allocation beyond
/// what the run could legitimately ship.
std::uint64_t max_frame_bytes_for(std::size_t max_payload_doubles);

/// Decodes and VALIDATES a length prefix: throws std::runtime_error
/// (naming both the declared length and the limit) when the declared
/// length is zero or exceeds `limit`. Call this -- never bare
/// decode_length -- before sizing any buffer from wire data.
std::uint64_t checked_frame_length(const std::uint8_t* data,
                                   std::uint64_t limit);

/// Appends a complete frame (length prefix + type + payload) for the
/// message to `out`. The encoders never clear `out`, so a caller can
/// batch frames into one write.
void encode_chunk(const ChunkMessage& message, ByteBuffer& out);
void encode_operand(const OperandMessage& message, ByteBuffer& out);
void encode_result(const ResultMessage& message, ByteBuffer& out);
void encode_cancel(const CancelMessage& message, ByteBuffer& out);
/// Payload-free control frame (kCredit, kGoodbye).
void encode_control(FrameType type, ByteBuffer& out);

/// Handshake identity: the magic marks a peer as an hmxp worker at all,
/// the version gates the frame layout. Bump kProtocolVersion on ANY
/// wire-visible change; a mismatched peer then gets one clean error
/// naming both versions instead of silently misparsing the next frame.
inline constexpr std::uint32_t kProtocolMagic = 0x50584d48;  // "HMXP"
inline constexpr std::uint32_t kProtocolVersion = 2;

/// Bootstrap handshake payload: protocol identity (magic + version),
/// the worker's identity token and advertised host resources, and its
/// full kernel configuration -- dispatch tier, micro-kernel
/// variant, and the tuned blocking parameters -- so the master can
/// verify a forked worker computes with the IDENTICAL configuration it
/// resolved (autotuned) before forking. A divergent worker (stale env
/// pin, different tuned blocking) would silently produce different tile
/// timings; the handshake turns that into an immediate, attributable
/// failure.
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

/// Decoders for one frame BODY (type byte + payload, i.e. `length`
/// bytes starting after the prefix). They validate the type byte and
/// every interior length; a truncated or corrupt frame throws
/// std::runtime_error. Element vectors are acquired from `pool`.
ChunkMessage decode_chunk(const std::uint8_t* body, std::size_t size,
                          BufferPool& pool);
OperandMessage decode_operand(const std::uint8_t* body, std::size_t size,
                              BufferPool& pool);
ResultMessage decode_result(const std::uint8_t* body, std::size_t size,
                            BufferPool& pool);
CancelMessage decode_cancel(const std::uint8_t* body, std::size_t size);
/// Type byte of a frame body (size must be >= 1).
FrameType frame_type(const std::uint8_t* body, std::size_t size);
/// Kernel configuration of a kHello body.
HelloFrame decode_hello(const std::uint8_t* body, std::size_t size);
/// Exception text of a kError body.
std::string decode_error(const std::uint8_t* body, std::size_t size);

// ---- descriptor frames (shm transport) --------------------------------------
//
// The encoders require every payload to be an arena view (the shm
// transport packs windows into slots before encoding) and write only
// (slot, length) pairs; the decoders validate the slot index and length
// against `arena` and hand back messages whose payloads are views into
// the SAME shared slots -- no payload byte is ever copied. A decoded
// message OWNS its slots (Payload releases them back to the arena), so
// the encoder side must detach after shipping the frame.

void encode_chunk_ref(const ChunkMessage& message, ByteBuffer& out);
void encode_operand_ref(const OperandMessage& message, ByteBuffer& out);
void encode_result_ref(const ResultMessage& message, ByteBuffer& out);

ChunkMessage decode_chunk_ref(const std::uint8_t* body, std::size_t size,
                              SharedArena& arena);
OperandMessage decode_operand_ref(const std::uint8_t* body, std::size_t size,
                                  SharedArena& arena);
ResultMessage decode_result_ref(const std::uint8_t* body, std::size_t size,
                                SharedArena& arena);

}  // namespace hmxp::runtime::serde
