#ifndef CWDB_PROTECT_REGION_GATE_H_
#define CWDB_PROTECT_REGION_GATE_H_

#include <atomic>
#include <cstdint>
#include <thread>

// TSan cannot follow the optimistic precheck's seqlock reasoning, so that
// path is compiled out under TSan, with the fences GCC's TSan rejects.
#if defined(__SANITIZE_THREAD__)
#define CWDB_TSAN_ENABLED 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define CWDB_TSAN_ENABLED 1
#endif
#endif
#ifndef CWDB_TSAN_ENABLED
#define CWDB_TSAN_ENABLED 0
#endif

namespace cwdb {

/// The paper's protection and codeword latches (§3.1, §3.2) for one parity
/// group of regions, in one word: a writer count (bits 0-15, the protection
/// latch held shared), a fold bit (16, the codeword latch), a blocked bit
/// (17, the protection latch held exclusive) and a generation (18-63, the
/// seqlock epoch). A writer Joins, writes, takes the fold bit, folds with
/// plain stores and Leaves (one fetch_add drops the writer and the fold bit
/// and bumps the generation). A holder (audit, repair, precheck fallback)
/// Blocks — new writers back out while the bit is set — waits for the
/// writers inside to drain, and Unblocks with a generation bump. A reader's
/// racy verify counts only if the word was Quiet before it and unchanged
/// after it. Each non-blocking method is one atomic step; DESIGN.md §8a has
/// the lock order and the memory-ordering argument.
class RegionGate {
 public:
  static constexpr uint64_t kWriter = 1;
  static constexpr uint64_t kWriterMask = 0xFFFF;
  static constexpr uint64_t kFold = uint64_t{1} << 16;
  static constexpr uint64_t kBlocked = uint64_t{1} << 17;
  static constexpr uint64_t kGeneration = uint64_t{1} << 18;

  explicit RegionGate(uint64_t word = 0) : word_(word) {}

  /// False when the gate is blocked; the caller must then BackOut.
  bool TryJoin() {
    return Won(word_.fetch_add(kWriter, std::memory_order_acquire), kBlocked);
  }
  void BackOut() { word_.fetch_sub(kWriter, std::memory_order_relaxed); }
  /// False when another writer of the gate holds the fold bit.
  bool TryTakeFold() {
    return (word_.fetch_or(kFold, std::memory_order_acquire) & kFold) == 0;
  }
  /// Drops the writer and its fold bit and bumps the generation.
  void Leave() {
    word_.fetch_add(kGeneration - kFold - kWriter, std::memory_order_release);
  }

  /// False when another holder has the gate blocked.
  bool TryBlock() {
    return Won(word_.fetch_or(kBlocked, std::memory_order_acquire), kBlocked);
  }
  bool Drained() const { return (Snapshot() & kWriterMask) == 0; }
  /// Clears the blocked bit and bumps the generation.
  void Unblock() {
    word_.fetch_add(kGeneration - kBlocked, std::memory_order_release);
  }

  uint64_t Snapshot() const { return word_.load(std::memory_order_acquire); }
  /// No writer inside and no holder: the group's bytes and codewords agree.
  static bool Quiet(uint64_t word) {
    return (word & (kWriterMask | kBlocked)) == 0;
  }
  /// The re-check after a racy verify: the word still equals `snap`.
  bool Validate(uint64_t snap) const {
    Fence(std::memory_order_acquire);
    return word_.load(std::memory_order_relaxed) == snap;
  }

  void Join() {
    while (!TryJoin()) {
      BackOut();
      WaitClear(kBlocked);
    }
  }
  void TakeFold() { while (!TryTakeFold()) WaitClear(kFold); }
  /// Blocks the gate, then waits until every writer inside has left.
  void Block() {
    while (!TryBlock()) WaitClear(kBlocked);
    WaitClear(kWriterMask);
  }

 private:
  /// True when `bit` was clear before this caller's step. The release fence
  /// then keeps the caller's later byte stores from becoming visible before
  /// the word change (the seqlock writer side).
  static bool Won(uint64_t old, uint64_t bit) {
    if ((old & bit) != 0) return false;
    Fence(std::memory_order_release);
    return true;
  }
  static void Fence(std::memory_order order) {
#if !CWDB_TSAN_ENABLED
    std::atomic_thread_fence(order);
#else
    (void)order;
#endif
  }
  /// Spins until every bit of `mask` reads clear: 64 polls, then yields.
  void WaitClear(uint64_t mask) const {
    for (int spins = 0; (Snapshot() & mask) != 0; ++spins) {
      if (spins >= 64) std::this_thread::yield();
    }
  }

  std::atomic<uint64_t> word_;
};

}  // namespace cwdb

#endif  // CWDB_PROTECT_REGION_GATE_H_
