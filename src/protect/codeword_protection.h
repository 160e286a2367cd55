#ifndef CWDB_PROTECT_CODEWORD_PROTECTION_H_
#define CWDB_PROTECT_CODEWORD_PROTECTION_H_

#include <algorithm>
#include <memory>
#include <mutex>
#include <vector>

#include "common/parallel.h"
#include "protect/codeword_table.h"
#include "protect/parity_repair.h"
#include "protect/protection.h"
#include "protect/region_gate.h"
#include "storage/shard_map.h"

namespace cwdb {

/// Codeword-based protection (paper §3.1 and §3.2), covering the Data
/// Codeword, Read Prechecking, Read Logging and Codeword Read Logging
/// configurations. All four maintain region codewords incrementally from
/// the undo image at EndUpdate; they differ on the read path (precheck vs.
/// read logging — read logging itself is emitted by the transaction layer,
/// which consults options().LogsReads()).
///
/// Latching follows the paper, with both latches of a parity group packed
/// into one RegionGate word (protect/region_gate.h). All four schemes share
/// one update path: updaters join the gates of the groups they touch
/// (protection latch, shared) and fold under the gate's fold bit (codeword
/// latch). Audits, precheck fallbacks, forensics probes, recomputes and
/// repairs block one gate at a time (protection latch, exclusive) for a
/// consistent (region, codeword) snapshot. Read prechecks (§3.1) verify
/// optimistically against the gate word first and block only when the
/// group stays busy.
///
/// The arena is partitioned into shards (ShardMap): each shard owns its own
/// codeword table, gates and counters, so updates on different shards touch
/// disjoint cache lines end to end. Region ids stay *global*, and groups
/// never cross a shard, so ascending address order is one total order over
/// every gate in the engine.
class CodewordProtection : public ProtectionManager {
 public:
  static Result<std::unique_ptr<ProtectionManager>> Create(
      const ProtectionOptions& options, DbImage* image,
      MetricsRegistry* metrics = nullptr);

  Status BeginUpdate(DbPtr off, uint32_t len, UpdateHandle* h) override;
  void EndUpdate(const UpdateHandle& h, const uint8_t* before) override;
  void AbortUpdate(const UpdateHandle& h) override;
  Status PrecheckRead(DbPtr off, uint32_t len) override;
  Status AuditAll(std::vector<CorruptRange>* corrupt) override;
  Status AuditRange(DbPtr off, uint64_t len,
                    std::vector<CorruptRange>* corrupt) override;
  Status AuditRangeParallel(DbPtr off, uint64_t len, size_t width,
                            std::vector<CorruptRange>* corrupt) override;
  Status ResetFromImage() override;
  Status RecomputeRegions(DbPtr off, uint64_t len) override;
  bool RegionCodewords(DbPtr off, codeword_t* stored,
                       codeword_t* computed) override;
  uint64_t SpaceOverheadBytes() const override;
  bool CanRepair() const override { return parity_ != nullptr; }
  Status TryRepair(const std::vector<CorruptRange>& ranges,
                   RepairOutcome* outcome) override;
  bool SnapshotSidecar(uint64_t ck_end, std::string* blob) override;

  const ShardMap& shard_map() const { return shard_map_; }
  /// The error-correcting tier (null when parity_group_regions == 0 in the
  /// options).
  const ParityTier* parity() const { return parity_.get(); }

 private:
  /// One shard's protection state. Padded so neighboring shards never
  /// share a cache line.
  struct alignas(64) Shard {
    Shard(uint64_t base, uint64_t len, uint32_t region_size, uint64_t gates)
        : codewords(base, len, region_size), gates(new RegionGate[gates]) {}
    CodewordTable codewords;
    std::unique_ptr<RegionGate[]> gates;  ///< One per parity group.
    Counter* updates = nullptr;     ///< Per-shard update windows.
    Counter* prechecks = nullptr;   ///< Per-shard read prechecks.
  };

  /// A region's parity group: its shard, its gate and its last region.
  struct Group {
    Shard* shard;
    RegionGate* gate;
    uint64_t last_region;
  };

  CodewordProtection(const ProtectionOptions& options, DbImage* image,
                     MetricsRegistry* metrics = nullptr);

  // -- Shard/group geometry. Region ids are global. --

  uint64_t RegionOf(DbPtr off) const { return off >> region_shift_; }
  DbPtr RegionStart(uint64_t region) const {
    return static_cast<DbPtr>(region) << region_shift_;
  }
  size_t ShardOfRegion(uint64_t region) const {
    return shard_map_.ShardOf(RegionStart(region));
  }
  CodewordTable& TableForRegion(uint64_t region) const {
    return shards_[ShardOfRegion(region)]->codewords;
  }
  Group GroupOf(uint64_t region) const {
    Shard& sh = *shards_[ShardOfRegion(region)];
    const uint64_t base = sh.codewords.base_region();
    const uint64_t g = (region - base) / group_regions_;
    const uint64_t end = std::min(base + (g + 1) * group_regions_,
                                  base + sh.codewords.region_count());
    return Group{&sh, &sh.gates[g], end - 1};
  }

  /// Calls fn(group, pos, chunk) for each group's slice of [off, off+len),
  /// in ascending order — the order writers join gates in.
  template <typename Fn>
  void ForEachGroup(DbPtr off, uint32_t len, Fn&& fn) const {
    const DbPtr end = off + len;
    for (DbPtr pos = off; pos < end;) {
      const Group group = GroupOf(RegionOf(pos));
      const DbPtr stop = std::min(end, RegionStart(group.last_region + 1));
      fn(group, pos, static_cast<uint32_t>(stop - pos));
      pos = stop;
    }
  }

  /// Audits one region, its gate blocked by the caller (or validated by the
  /// caller on the optimistic read path).
  bool VerifyRegion(uint64_t region) const {
    return TableForRegion(region).Verify(image_->base(), region);
  }

  /// Per-call tallies of PrecheckRead, published once per call.
  struct PrecheckTally {
    uint64_t validated = 0;
    uint64_t fallbacks = 0;
  };

  /// Read Precheck verification of one region: optimistic gate-validated
  /// verify first (a few attempts), blocked-gate fallback. Returns true if
  /// the region's codeword matches.
  bool RegionCleanForRead(uint64_t region, PrecheckTally* tally);

  /// Per-lane tallies of a sweep span, merged into stats_ once per call so
  /// parallel lanes never race on the shared counters.
  struct SweepCounts {
    uint64_t audited = 0;
    uint64_t failures = 0;
  };

  /// Audits regions [first, last], blocking each region's gate in turn.
  /// Appends failures to *corrupt (never null here) and tallies into
  /// *counts; no shared state is touched.
  void AuditSpan(uint64_t first, uint64_t last,
                 std::vector<CorruptRange>* corrupt, SweepCounts* counts);

  /// Audits the regions covering [off, off+len) across up to `width` sweep
  /// lanes; shared implementation of AuditRange / AuditRangeParallel /
  /// AuditAll.
  Status AuditRegions(DbPtr off, uint64_t len, size_t width,
                      std::vector<CorruptRange>* corrupt);

  /// Rebuilds every shard's table from the image (Create/ResetFromImage).
  void RebuildAllShards();

  /// In-place reconstruction of one flagged region from its parity group.
  /// Blocks the group's one gate, which excludes every writer of a member
  /// region and every fold into the group's column; the lock order stays
  /// checkpoint latch -> one gate. On success *delta is the XOR of the
  /// region codeword computed from the corrupt bytes and from the
  /// reconstruction. Caller must hold no gate.
  bool RepairRegionInPlace(uint64_t region, codeword_t* delta);

  /// Sweep pool for RebuildAll / AuditAll partitions, created on first use
  /// (never created when options.sweep_threads == 1). Lanes only ever run
  /// whole-region work under the region's own gate, so pool parallelism
  /// composes with foreground updates exactly like the sequential auditor
  /// does.
  ThreadPool* sweep_pool();

  const int region_shift_;
  /// Regions per gate: the parity group, or a fixed 64 without the tier.
  const uint32_t group_regions_;
  ShardMap shard_map_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::unique_ptr<ParityTier> parity_;  ///< Null when the tier is disabled.

  /// Prechecks that verified a region without blocking its gate / that
  /// blocked it.
  Counter* validated_reads_;
  Counter* validated_fallbacks_;

  std::once_flag sweep_pool_once_;
  std::unique_ptr<ThreadPool> sweep_pool_;
};

}  // namespace cwdb

#endif  // CWDB_PROTECT_CODEWORD_PROTECTION_H_
