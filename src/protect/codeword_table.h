#ifndef CWDB_PROTECT_CODEWORD_TABLE_H_
#define CWDB_PROTECT_CODEWORD_TABLE_H_

#include <cstdint>
#include <vector>

#include "common/codeword.h"
#include "common/logging.h"
#include "common/parallel.h"
#include "storage/layout.h"

namespace cwdb {

/// One codeword per protection region of a span of the database image. The
/// table lives *outside* the protected arena, so a wild write into the
/// database cannot silently fix up its own codeword. Synchronization is the
/// caller's job (the ProtectionManager's region gates).
///
/// A table may cover the whole arena (base 0) or one shard's span of it.
/// Region ids are always *global* — `RegionOf(off)` is the same number no
/// matter which shard's table answers — so shard-local tables slot into
/// audit cursors, forensics dossiers and recovery without translation; only
/// the backing vector is shard-local.
///
/// Space overhead is sizeof(codeword_t) / region_size: 6.25% at 64 bytes,
/// 0.78% at 512 bytes, 0.05% at 8K — the time/space tradeoff of Table 2.
class CodewordTable {
 public:
  /// Table covering [base_off, base_off + len) of the image. Both bounds
  /// must be multiples of `region_size` (a power of two >= 8).
  CodewordTable(uint64_t base_off, uint64_t len, uint32_t region_size);

  /// Whole-arena table (base 0) — the pre-sharding constructor.
  CodewordTable(uint64_t arena_size, uint32_t region_size)
      : CodewordTable(0, arena_size, region_size) {}

  uint32_t region_size() const { return region_size_; }
  uint64_t region_count() const { return codewords_.size(); }

  uint64_t RegionOf(DbPtr off) const { return off >> shift_; }
  DbPtr RegionStart(uint64_t region) const {
    return static_cast<DbPtr>(region) << shift_;
  }

  /// First (global) region id this table covers.
  uint64_t base_region() const { return base_region_; }

  codeword_t Get(uint64_t region) const { return codewords_[Index(region)]; }
  void Set(uint64_t region, codeword_t cw) { codewords_[Index(region)] = cw; }

  /// Folds the change (before -> after, len bytes at image offset off) into
  /// the codewords of every region the range covers. `before` and `after`
  /// both have `len` bytes.
  void ApplyDelta(DbPtr off, const uint8_t* before, const uint8_t* after,
                  uint32_t len);

  /// Recomputes the codeword of `region` from the image bytes.
  codeword_t ComputeFromImage(const uint8_t* arena_base,
                              uint64_t region) const;

  /// True if the stored codeword matches the image bytes.
  bool Verify(const uint8_t* arena_base, uint64_t region) const {
    return ComputeFromImage(arena_base, region) == codewords_[Index(region)];
  }

  /// Recomputes every codeword from the image (after checkpoint load /
  /// recovery, and at creation). With a pool, the region range is
  /// partitioned across its lanes — each lane writes a disjoint slice of
  /// the table, so the pass is data-race free by construction. The caller
  /// must ensure no concurrent updates (all rebuild sites run with the
  /// image quiesced).
  void RebuildAll(const uint8_t* arena_base, ThreadPool* pool = nullptr);

  uint64_t space_overhead_bytes() const {
    return codewords_.size() * sizeof(codeword_t);
  }

 private:
  /// Backing-vector slot of a global region id.
  size_t Index(uint64_t region) const {
    CWDB_DCHECK(region >= base_region_ &&
                region - base_region_ < codewords_.size())
        << "region " << region << " outside this table's span";
    return static_cast<size_t>(region - base_region_);
  }

  uint32_t region_size_;
  int shift_;
  uint64_t base_region_;
  std::vector<codeword_t> codewords_;
};

}  // namespace cwdb

#endif  // CWDB_PROTECT_CODEWORD_TABLE_H_
