// Cross-process payload arena for the zero-copy shm transport: a
// mmap'd MAP_SHARED | MAP_ANONYMOUS region created by the master BEFORE
// it forks its workers, so every child inherits the same mapping at the
// same address. Operand and result element windows live in fixed-size
// 64-byte-aligned slots inside the region; the frames on the shm rings
// then name a slot (serde's arena home) instead of carrying payload
// bytes -- the serde and kernel-socket copies of a socket pipe disappear
// from the hot path entirely.
//
// The arena is the cross-process sibling of runtime::BufferPool: where
// the pool recycles heap vectors inside one address space, the arena
// recycles shared slots across address spaces. Slot state is an atomic
// owner tag per slot living INSIDE the shared mapping (lock-free, and
// address-free as required for MAP_SHARED atomics), so:
//
//   * the master acquires slots (tagging each with the worker it is
//     destined for) and blocks its send path when none is free -- arena
//     capacity is backpressure, alongside the buffer credits every
//     forked worker returns;
//   * a worker releases consumed operand slots directly through shared
//     memory -- a single atomic store, so even a SIGKILL cannot leave a
//     release half-done;
//   * when a worker dies without unwinding, the master reclaims every
//     slot still tagged with that worker (release_all_owned_by), which
//     is what keeps fault-tolerant recovery leak-free.
//
// Acquire/release counters (also shared) make "no slot leaked at
// shutdown" an assertable property, mirroring BufferPool::Stats.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <optional>

namespace hmxp::runtime {

class SharedArena {
 public:
  /// Owner tag of a free slot. Valid owners are small non-negative
  /// integers (worker indices); the master may also tag with kMaster.
  static constexpr std::uint32_t kFree = 0xffffffffu;
  static constexpr std::uint32_t kMaster = 0xfffffffeu;

  struct Slot {
    std::uint32_t index = 0;
    double* data = nullptr;
  };

  struct Stats {
    std::uint64_t acquires = 0;
    std::uint64_t releases = 0;
    std::size_t in_use = 0;
    std::size_t peak_in_use = 0;
  };

  /// Maps `slot_count` slots of `slot_doubles` doubles each. The
  /// mapping is MAP_NORESERVE: virtual space is cheap, physical pages
  /// materialize only for bytes actually written, so generously sized
  /// slots cost only what the run really touches.
  SharedArena(std::size_t slot_count, std::size_t slot_doubles);
  ~SharedArena();

  SharedArena(const SharedArena&) = delete;
  SharedArena& operator=(const SharedArena&) = delete;

  std::size_t slot_count() const { return slot_count_; }
  std::size_t slot_doubles() const { return slot_doubles_; }

  /// Claims a free slot for `owner` (CAS on the slot's owner tag);
  /// nullopt when the arena is full. Non-blocking: the master wraps
  /// this in its socket-pumping wait loop so a full arena blocks the
  /// send path without deadlocking the result path.
  std::optional<Slot> try_acquire(std::uint32_t owner);

  /// Element storage of a slot (valid in every process sharing the
  /// mapping -- fork preserves the address).
  double* slot_data(std::uint32_t slot) const;

  /// Returns a slot to the free state. Tolerant of a benign race: if a
  /// crash-reclamation sweep freed the slot first (the master reaping a
  /// dying worker's slots while the worker's last release is in
  /// flight), the call is a no-op and the counters stay balanced.
  /// Returns true when this call performed the release.
  bool release(std::uint32_t slot);

  /// Crash reclamation: frees every slot still tagged `owner` and
  /// returns how many were reclaimed. Used when a worker dies without
  /// unwinding (SIGKILL): whatever it held -- queued operands, the
  /// chunk it was computing -- goes back to the free set.
  std::size_t release_all_owned_by(std::uint32_t owner);

  /// Shutdown backstop: frees everything. Returns the number of slots
  /// that were still held (0 on a clean run -- the leak detector).
  std::size_t release_all();

  std::size_t in_use() const;
  Stats stats() const;

 private:
  struct Header;
  Header* header() const;
  std::atomic<std::uint32_t>* owners() const;

  void* map_ = nullptr;
  std::size_t map_bytes_ = 0;
  std::size_t slot_count_ = 0;
  std::size_t slot_doubles_ = 0;
  std::size_t slots_offset_ = 0;  // byte offset of slot 0
  std::size_t slot_stride_ = 0;   // bytes between consecutive slots
};

}  // namespace hmxp::runtime
