// Messages exchanged between the master and its workers. Every payload
// is a runtime::Payload (runtime/payload.hpp), which abstracts WHERE
// its elements live. The master sends windows it lends over its own A,
// B and C -- no copy -- and each transport's Endpoint::send decides
// how a window travels: a thread worker reads A and B in place and gets
// a private pool copy of C, a stream encodes the rows straight into its
// frame, shm packs them into an arena slot. Whatever a worker receives
// is read-only except its C, which is its own to accumulate into: a
// pool vector (thread, and every stream decoder) or an arena slot (shm).
// In steady state the data plane moves its element storage -- the
// dominant, O(panel) allocations -- without allocating any; only
// O(1)-sized bookkeeping (channel nodes, plan metadata) still touches
// the heap per step.
#pragma once

#include <cstddef>
#include <type_traits>
#include <variant>
#include <vector>

#include "matrix/partition.hpp"
#include "runtime/payload.hpp"
#include "sim/chunk.hpp"

namespace hmxp::runtime {

/// New C chunk: element data for plan.rect (row-major, rect rows of q
/// elements each, edge blocks possibly short).
struct ChunkMessage {
  sim::ChunkPlan plan;
  std::size_t element_rows = 0;   // elements, not blocks
  std::size_t element_cols = 0;
  Payload c;                      // element_rows x element_cols
  /// Per-worker monotone chunk sequence number, echoed by the worker on
  /// the matching ResultMessage and named by a CancelMessage. The master
  /// uses it to discard a result that raced a cancellation.
  std::uint64_t seq = 0;
};

/// Operand batch for one step: the A panel (chunk rows x k-range) and
/// the B panel (k-range x chunk cols).
struct OperandMessage {
  std::size_t step = 0;
  std::size_t k_elem_begin = 0;   // element offset of the inner range
  std::size_t k_elems = 0;        // inner extent in elements
  Payload a;                      // element_rows x k_elems
  Payload b;                      // k_elems x element_cols
};

/// Finished chunk heading home.
struct ResultMessage {
  sim::ChunkPlan plan;
  std::size_t element_rows = 0;
  std::size_t element_cols = 0;
  Payload c;
  std::size_t updates_performed = 0;
  /// Measured wall seconds of each step's compute (slowdown repetitions
  /// included), aligned with plan.steps: the raw material of the
  /// master's online speed calibration.
  std::vector<double> step_seconds;
  /// The seq of the ChunkMessage this result answers.
  std::uint64_t seq = 0;
};

/// Non-fatal chunk revocation (straggler speculation lost the race, or
/// the master committed the speculative twin's result first): the worker
/// drops the chunk whose seq matches -- releasing its payloads -- and
/// keeps running with its territory intact. A mismatched seq means the
/// result already shipped; the worker ignores the cancel and the master
/// discards the raced result by seq instead.
struct CancelMessage {
  std::uint64_t seq = 0;
};

using WorkerMessage = std::variant<ChunkMessage, OperandMessage, CancelMessage>;

/// Calls `fn(Payload&)` on every payload `message` carries: a chunk's
/// C, an operand batch's A then B, nothing for a cancel. The one place
/// that knows which messages carry payloads.
template <typename Fn>
void for_each_payload(WorkerMessage& message, Fn&& fn) {
  std::visit(
      [&](auto& held) {
        using Held = std::decay_t<decltype(held)>;
        if constexpr (std::is_same_v<Held, ChunkMessage>) {
          fn(held.c);
        } else if constexpr (std::is_same_v<Held, OperandMessage>) {
          fn(held.a);
          fn(held.b);
        }
      },
      message);
}

}  // namespace hmxp::runtime
