#ifndef CWDB_OBS_SEQ_RING_H_
#define CWDB_OBS_SEQ_RING_H_

#include <atomic>
#include <cstdint>
#include <cstring>
#include <memory>
#include <type_traits>

#include "common/logging.h"

namespace cwdb {

/// Fixed-capacity multi-writer ring of T records with a seqlock per slot —
/// the one ticket protocol under the event trace, the span rings and the
/// black box's trace section (DESIGN.md §11, "Ring memory ordering").
///
/// Slot layout: one ticket word, then T as sizeof(T)/8 payload words. The
/// ticket is 0 for a never-written slot, 2s+1 while the writer of sequence
/// number s fills it, and 2s+2 once that record is published. A writer
/// takes s with one relaxed fetch_add; recording takes no lock, and
/// readers never block writers.
///
/// Ordering, with no fence: the writer claims the slot by moving its
/// ticket from an older even value to 2s+1 (a relaxed CAS), stores every
/// payload word with release, then the even ticket with release. The
/// reader loads the ticket with acquire, every payload word with acquire,
/// then re-checks the ticket relaxed, and keeps the copy only when both
/// ticket loads return the same even value. A payload load that saw a
/// later writer's word also sees that writer's odd ticket (its release
/// store carries it), so the re-check fails.
///
/// The claim covers two writers a whole lap apart on one slot: plain
/// ticket stores would let both fill it at once and publish a record that
/// mixes the two. Instead whichever reaches the slot second finds the
/// other's odd ticket, or a newer even one, and drops its record.
///
/// The storage is either owned (zeroed heap) or supplied by the caller —
/// the trace section of the mapped black box — so a ring that lives in a
/// file needs no mirror.
template <typename T>
class SeqRing {
  static_assert(std::is_trivially_copyable_v<T> && sizeof(T) % 8 == 0,
                "SeqRing records are copied as whole 64-bit words");

 public:
  static constexpr size_t kWords = sizeof(T) / 8;
  static constexpr size_t kSlotBytes = 8 * (1 + kWords);

  /// A ring of `slots` (a power of two) over zeroed storage of its own.
  explicit SeqRing(size_t slots)
      : owned_(new uint64_t[slots * (1 + kWords)]()),
        words_(owned_.get()),
        mask_(slots - 1) {
    CWDB_CHECK(slots > 0 && (slots & mask_) == 0)
        << "ring capacity must be a power of two";
  }

  /// A ring over `slots * kSlotBytes` bytes of caller storage, 8-byte
  /// aligned and either zeroed or holding slots in this layout. The
  /// storage must outlive the ring.
  SeqRing(uint64_t* storage, size_t slots)
      : words_(storage), mask_(slots - 1) {
    CWDB_CHECK(slots > 0 && (slots & mask_) == 0)
        << "ring capacity must be a power of two";
  }

  SeqRing(const SeqRing&) = delete;
  SeqRing& operator=(const SeqRing&) = delete;

  /// Copies every slot into `storage` (same capacity, same requirements as
  /// the constructor) and runs over it from now on. Only while no Push or
  /// ForEach is in flight.
  void MoveTo(uint64_t* storage) {
    std::memcpy(storage, words_, capacity() * kSlotBytes);
    words_ = storage;
    owned_.reset();
  }

  /// Publishes `value` under the next sequence number. False when the
  /// record is dropped: its slot is still being filled by a writer a whole
  /// lap behind, or already holds a newer record.
  bool Push(const T& value) {
    const uint64_t seq = head_.fetch_add(1, std::memory_order_relaxed);
    uint64_t* slot = Slot(seq & mask_);
    std::atomic_ref<uint64_t> ticket = Word(slot[0]);
    uint64_t t = ticket.load(std::memory_order_relaxed);
    do {
      if ((t & 1) != 0 || t > 2 * seq) return false;
    } while (!ticket.compare_exchange_weak(t, 2 * seq + 1,
                                           std::memory_order_relaxed));
    uint64_t w[kWords];
    std::memcpy(w, &value, sizeof(T));
    for (size_t i = 0; i < kWords; ++i) {
      Word(slot[1 + i]).store(w[i], std::memory_order_release);
    }
    ticket.store(2 * seq + 2, std::memory_order_release);
    return true;
  }

  /// Calls `fn(seq, value)` for every slot that holds a published record
  /// no writer touched while it was copied, in slot order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (size_t s = 0; s <= mask_; ++s) {
      uint64_t* slot = Slot(s);
      const uint64_t ticket = Word(slot[0]).load(std::memory_order_acquire);
      if (ticket == 0 || (ticket & 1) != 0) continue;  // Empty or writing.
      uint64_t w[kWords];
      for (size_t i = 0; i < kWords; ++i) {
        w[i] = Word(slot[1 + i]).load(std::memory_order_acquire);
      }
      if (Word(slot[0]).load(std::memory_order_relaxed) != ticket) continue;
      T value;
      std::memcpy(&value, w, sizeof(T));
      fn(ticket / 2 - 1, value);
    }
  }

  /// Push calls ever made on this ring object, dropped records included.
  uint64_t pushed() const { return head_.load(std::memory_order_relaxed); }
  size_t capacity() const { return mask_ + 1; }

 private:
  static std::atomic_ref<uint64_t> Word(uint64_t& w) {
    return std::atomic_ref<uint64_t>(w);
  }
  uint64_t* Slot(size_t i) const { return words_ + i * (1 + kWords); }

  std::unique_ptr<uint64_t[]> owned_;
  uint64_t* words_;
  size_t mask_;
  std::atomic<uint64_t> head_{0};
};

}  // namespace cwdb

#endif  // CWDB_OBS_SEQ_RING_H_
