#ifndef CWDB_PROTECT_PARITY_REPAIR_H_
#define CWDB_PROTECT_PARITY_REPAIR_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/codeword.h"
#include "common/result.h"
#include "common/slice.h"
#include "common/status.h"
#include "storage/layout.h"
#include "storage/shard_map.h"

namespace cwdb {

/// Error-*correcting* tier layered over the paper's error-*detecting*
/// codewords. Each shard's regions are split into fixed groups of
/// `group_regions` consecutive regions; a group carries one XOR parity
/// column of region_size bytes (byte j of the column is the XOR of byte j
/// of every member region). The per-region codeword is the *locator*: when
/// an audit / precheck / checkpoint-load verification flags exactly one
/// region of a group, its bytes are reconstructed as
///
///     column  XOR  (bytes of every other member region)
///
/// and the reconstruction is accepted only if its codeword equals the
/// stored codeword of the flagged region — which also covers the "parity
/// itself corrupt" case without a separate parity checksum. Two or more
/// corrupt regions in one group exceed the correction budget and fall back
/// to delete-transaction recovery.
///
/// Maintenance is incremental and rides the same region deltas that feed
/// the CodewordTable: an update folds (before XOR after) into the column
/// slice at the update's region-relative offset, so XOR linearity makes
/// repairs commute with concurrent legitimate updates — a reconstruction
/// restores the bytes "as if the corruption never happened" even when other
/// group members were updated after the wild write landed.
///
/// Like the codeword table, the columns live *outside* the protected arena,
/// so the class of software errors under study cannot silently patch the
/// parity that would expose them.
///
/// Synchronization is the caller's: one RegionGate guards each group
/// (protect/region_gate.h). ApplyDelta runs under the gate's fold bit;
/// RecomputeGroups and ReconstructRegion run with the gate blocked. The
/// tier itself takes no locks.
class ParityTier {
 public:
  ParityTier(const ShardMap& shards, uint32_t region_size,
             uint32_t group_regions);

  uint32_t region_size() const { return region_size_; }
  uint32_t group_regions() const { return group_regions_; }
  uint64_t space_overhead_bytes() const;

  /// Folds an update of [off, off+len) (before -> after) into the covering
  /// columns. The range must not cross a shard boundary (the protection
  /// manager's per-group chunk loop guarantees this). Caller holds the
  /// fold bit of every covered group's gate.
  void ApplyDelta(DbPtr off, const uint8_t* before, const uint8_t* after,
                  uint32_t len);

  /// Recomputes every column of every group overlapping [off, off+len)
  /// from the image bytes (recovery writes / cache-recovery restores that
  /// bypass the update interface). Caller has every covered group's gate
  /// blocked, or the image quiesced.
  void RecomputeGroups(const uint8_t* base, DbPtr off, uint64_t len);

  /// Recomputes every column from the image (checkpoint load / recovery
  /// reset). Caller quiesced.
  void RebuildAll(const uint8_t* base);

  /// Global region ids of the group containing `region` (including it).
  void GroupMembers(uint64_t region, std::vector<uint64_t>* members) const;

  /// Reconstructs `region`'s bytes into `out` (region_size bytes) assuming
  /// only it is corrupt. Caller has the group's gate blocked.
  void ReconstructRegion(const uint8_t* base, uint64_t region,
                         uint8_t* out) const;

  /// Appends every column in (shard, group) order — the sidecar layout.
  /// Caller quiesced (checkpoint copy phase under the exclusive latch).
  void AppendColumns(std::string* out) const;

 private:
  struct ShardParity {
    uint64_t base_region = 0;   ///< First global region of the shard.
    uint64_t region_count = 0;
    uint64_t group_count = 0;
    std::vector<uint8_t> columns;  ///< group_count * region_size bytes.
  };

  size_t ShardOfRegion(uint64_t region) const {
    return shard_map_.ShardOf(static_cast<DbPtr>(region) << shift_);
  }

  ShardMap shard_map_;
  uint32_t region_size_;
  uint32_t group_regions_;
  int shift_;
  std::vector<ShardParity> shards_;
};

/// Persisted snapshot of the protection state a checkpoint image was
/// written under: the per-region codewords and the parity columns, with
/// enough geometry to verify and repair the image bytes standalone (no
/// live database — `cwdb_ctl check` runs it against a cold image). The
/// sidecar is CRC-framed and stamped with the checkpoint's CK_end, so a
/// stale or torn sidecar is recognized and treated as "no verification
/// possible", never as damage.
struct ParitySidecar {
  uint64_t ck_end = 0;
  uint64_t arena_size = 0;
  uint32_t region_size = 0;
  uint32_t group_regions = 0;
  /// Shard spans (start, len), in ascending order, covering the arena.
  std::vector<std::pair<uint64_t, uint64_t>> shards;
  /// One codeword per region in global region order.
  std::vector<codeword_t> codewords;
  /// Parity columns in (shard, group) order, concatenated.
  std::string columns;
};

std::string EncodeParitySidecar(const ParitySidecar& sidecar);
/// Fails (Corruption) on bad magic / CRC / truncation / inconsistent
/// geometry — callers skip verification rather than failing the load.
Result<ParitySidecar> DecodeParitySidecar(Slice blob);

/// What a sidecar verification + repair pass did to an image.
struct ImageRepairReport {
  uint64_t regions_verified = 0;
  std::vector<CorruptRange> detected;    ///< Codeword mismatches found.
  std::vector<CorruptRange> repaired;    ///< Reconstructed in place.
  std::vector<codeword_t> repair_deltas; ///< Parallel to `repaired`:
                                         ///< codeword(corrupt) XOR
                                         ///< codeword(repaired).
  std::vector<CorruptRange> unrepaired;  ///< Beyond the correction budget.
};

/// Verifies every region of `base` against the sidecar codewords. Returns
/// the mismatching regions in ascending order; *regions_verified counts the
/// regions checked.
std::vector<CorruptRange> VerifyImageAgainstSidecar(
    const ParitySidecar& sidecar, const uint8_t* base,
    uint64_t* regions_verified);

/// Repairs previously-detected regions of `base` from the sidecar parity:
/// groups with exactly one corrupt region are reconstructed, re-verified
/// against the stored codeword, and (when `apply`) written back into the
/// image; everything else lands in report->unrepaired. `detected` must
/// come from VerifyImageAgainstSidecar over the same bytes.
void RepairImageWithSidecar(const ParitySidecar& sidecar, uint8_t* base,
                            const std::vector<CorruptRange>& detected,
                            bool apply, ImageRepairReport* report);

}  // namespace cwdb

#endif  // CWDB_PROTECT_PARITY_REPAIR_H_
