#ifndef CWDB_STORAGE_DB_IMAGE_H_
#define CWDB_STORAGE_DB_IMAGE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "storage/arena.h"
#include "storage/layout.h"

namespace cwdb {

/// Read-side view and address math over the database image. DbImage never
/// mutates persistent bytes itself: all writes to the arena must go through
/// the prescribed Transaction::BeginUpdate / EndUpdate interface so they are
/// logged, codeword-maintained and (optionally) mprotect-guarded. The two
/// exceptions are Format(), which runs once before any log exists, and
/// checkpoint load, which replaces the whole image before recovery.
///
/// DbImage also tracks volatile dirty-page state for the ping-pong
/// checkpointer: one dirty bitmap per checkpoint image (a page dirtied
/// since image A was last written must go to A next time, independent of B).
class DbImage {
 public:
  /// Creates a zeroed arena of `arena_size` and formats the header and
  /// table directory. `page_size` is the *database* page size used for
  /// dirty tracking and checkpoint granularity (a multiple of the OS page).
  static Result<std::unique_ptr<DbImage>> Create(uint64_t arena_size,
                                                 uint32_t page_size);

  /// Validates the header after the arena contents have been replaced by a
  /// checkpoint load.
  Status ValidateHeader() const;

  uint8_t* base() const { return arena_->base(); }
  uint64_t size() const { return arena_size_; }
  uint32_t page_size() const { return page_size_; }
  uint64_t page_count() const { return arena_size_ / page_size_; }
  Arena* arena() const { return arena_.get(); }

  /// Raw pointer into the image; callers must stay within bounds.
  uint8_t* At(DbPtr off) const { return arena_->base() + off; }

  bool InBounds(DbPtr off, uint64_t len) const {
    return off <= arena_size_ && len <= arena_size_ - off;
  }

  const DbHeaderRaw* header() const {
    return reinterpret_cast<const DbHeaderRaw*>(At(kHeaderOff));
  }
  const TableMetaRaw* table_meta(TableId t) const {
    return reinterpret_cast<const TableMetaRaw*>(At(TableMetaOff(t)));
  }

  /// Finds an in-use table by name. Returns kMaxTables if absent.
  TableId FindTable(const std::string& name) const;

  /// Image offset of record `slot` of table `t` (no liveness check).
  DbPtr RecordOff(TableId t, uint32_t slot) const {
    const TableMetaRaw* m = table_meta(t);
    return m->data_off + static_cast<uint64_t>(slot) * m->record_size;
  }

  /// True if `slot` is allocated in table `t`'s bitmap.
  bool SlotAllocated(TableId t, uint32_t slot) const;

  /// First free slot at or after `hint`, wrapping once; kInvalidSlot if the
  /// table is full. Read-only scan of the allocation bitmap.
  uint32_t FindFreeSlot(TableId t, uint32_t hint) const;

  uint64_t PageOf(DbPtr off) const { return off / page_size_; }

  /// Volatile per-table slot-allocation hint (purely an optimization for
  /// FindFreeSlot; safe to lose on crash).
  uint32_t alloc_hint(TableId t) const { return alloc_hint_[t]; }
  void set_alloc_hint(TableId t, uint32_t hint) { alloc_hint_[t] = hint; }

  // -- Volatile dirty-page tracking (two sets: ping-pong images A and B) --

  /// Marks pages covering [off, off+len) dirty in both checkpoint sets.
  void MarkDirty(DbPtr off, uint64_t len);

  /// Pages currently dirty with respect to checkpoint image `which` (0/1).
  std::vector<uint64_t> DirtyPages(int which) const;
  void ClearDirty(int which);
  /// Re-marks `pages` dirty in set `which` — a failed checkpoint restores
  /// the snapshot it cleared so the next checkpoint rewrites those pages.
  void MarkPagesDirty(int which, const std::vector<uint64_t>& pages);
  void MarkAllDirty(int which) { dirty_[which].Fill(true); }
  bool IsDirty(int which, uint64_t page) const {
    return dirty_[which].Test(page);
  }

 private:
  /// Bit-per-page dirty set over atomic words. Transactions in different
  /// shards mark pages concurrently (under the shared side of the checkpoint
  /// latch), and pages that share a 64-bit word must not race; fetch_or makes
  /// the bit sets independent. Relaxed ordering suffices — visibility to the
  /// checkpointer is ordered by the exclusive checkpoint latch acquisition.
  class DirtyBitmap {
   public:
    void Reset(uint64_t pages) {
      pages_ = pages;
      words_ = std::make_unique<std::atomic<uint64_t>[]>((pages + 63) / 64);
      Fill(false);
    }
    void Set(uint64_t page) {
      words_[page / 64].fetch_or(1ull << (page % 64),
                                 std::memory_order_relaxed);
    }
    bool Test(uint64_t page) const {
      return (words_[page / 64].load(std::memory_order_relaxed) >>
              (page % 64)) &
             1u;
    }
    void Fill(bool value) {
      uint64_t word_count = (pages_ + 63) / 64;
      for (uint64_t w = 0; w < word_count; ++w) {
        words_[w].store(value ? ~0ull : 0ull, std::memory_order_relaxed);
      }
    }
    uint64_t pages() const { return pages_; }

   private:
    std::unique_ptr<std::atomic<uint64_t>[]> words_;
    uint64_t pages_ = 0;
  };

  DbImage(std::unique_ptr<Arena> arena, uint64_t arena_size,
          uint32_t page_size);

  void FormatHeader();

  std::unique_ptr<Arena> arena_;
  uint64_t arena_size_;
  uint32_t page_size_;
  DirtyBitmap dirty_[2];
  uint32_t alloc_hint_[kMaxTables] = {};
};

}  // namespace cwdb

#endif  // CWDB_STORAGE_DB_IMAGE_H_
