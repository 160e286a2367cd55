#ifndef CWDB_PROTECT_OPTIONS_H_
#define CWDB_PROTECT_OPTIONS_H_

#include <cstddef>
#include <cstdint>
#include <string>

namespace cwdb {

/// The protection schemes studied in the paper (Sections 3 and 5.3).
/// Every codeword scheme includes Data Codeword maintenance and audits;
/// the enum picks what happens *in addition* on the read/write paths.
enum class ProtectionScheme : uint8_t {
  /// Baseline: no protection at all.
  kNone = 0,
  /// "Data CW": codewords maintained on update, corruption detected by
  /// asynchronous audits only (§3.2). Detects direct corruption.
  kDataCodeword = 1,
  /// "Data CW w/Precheck": every read verifies the containing region(s)
  /// against the codeword under the protection latch (§3.1). Prevents
  /// transaction-carried (indirect) corruption.
  kReadPrecheck = 2,
  /// "Data CW w/ReadLog": the identity of every read is logged (§4.2),
  /// enabling delete-transaction corruption recovery (§4.3).
  kReadLog = 3,
  /// "Data CW w/CW ReadLog": read log records additionally carry a codeword
  /// of the bytes read, and physical redo records carry a codeword of the
  /// overwritten bytes; recovery becomes view-consistent and needs no
  /// CorruptDataTable (§4.3, Extension).
  kCodewordReadLog = 4,
  /// "Memory Protection": mprotect expose-page update model, after
  /// Sullivan & Stonebraker [21]. Prevents direct corruption.
  kHardware = 5,
};

const char* ProtectionSchemeName(ProtectionScheme scheme);

struct ProtectionOptions {
  ProtectionScheme scheme = ProtectionScheme::kNone;

  /// Protection region size in bytes (power of two, >= 8). The paper's
  /// Table 2 uses 64, 512 and 8192.
  uint32_t region_size = 512;

  /// Number of protection shards. Each shard owns a contiguous span of the
  /// arena with its own codeword table and region gates, so transactions on
  /// disjoint shards share no protection state.
  /// 1 = the pre-sharding layout.
  size_t shards = 1;

  /// Shard span alignment (power of two). 0 = region_size. The database
  /// passes max(page size, region size) so protection shard boundaries
  /// coincide with the storage shard map.
  uint64_t shard_align = 0;

  /// Regions per XOR parity group of the error-correcting repair tier.
  /// Every group of this many consecutive regions (within one shard)
  /// carries one parity column of region_size bytes, maintained from the
  /// same deltas that feed the codeword table; a single corrupt region per
  /// group can be reconstructed in place instead of falling back to
  /// delete-transaction recovery. 0 disables the tier. Space overhead is
  /// roughly region_size / (group * region_size) = 1/group of the arena
  /// (~1.6% at the default 64), plus one extra XOR fold per update.
  /// Only meaningful for codeword schemes. Each group also has one
  /// RegionGate (a gate spans a fixed 64 regions when the tier is off).
  uint32_t parity_group_regions = 64;

  /// Worker lanes for the bulk codeword sweeps — full-image rebuilds
  /// (checkpoint load / recovery) and AuditAll / parallel audit slices.
  /// Regions are independent, so the sweeps partition embarrassingly.
  /// 0 = one lane per hardware thread; 1 = fully single-threaded (no pool
  /// is even created). Per-update codeword maintenance is never affected.
  size_t sweep_threads = 0;

  bool UsesCodewords() const {
    return scheme == ProtectionScheme::kDataCodeword ||
           scheme == ProtectionScheme::kReadPrecheck ||
           scheme == ProtectionScheme::kReadLog ||
           scheme == ProtectionScheme::kCodewordReadLog;
  }
  bool PrechecksReads() const {
    return scheme == ProtectionScheme::kReadPrecheck;
  }
  bool LogsReads() const {
    return scheme == ProtectionScheme::kReadLog ||
           scheme == ProtectionScheme::kCodewordReadLog;
  }
  bool LogsReadChecksums() const {
    return scheme == ProtectionScheme::kCodewordReadLog;
  }
};

/// Point-in-time snapshot of a ProtectionManager's counters, assembled
/// from the metrics registry by stats(). The live instruments are sharded
/// atomics (obs/metrics.h), so concurrent transactions update them
/// race-free; this struct is a plain copy for callers.
struct ProtectionStats {
  uint64_t updates = 0;           ///< BeginUpdate/EndUpdate pairs.
  uint64_t codeword_folds = 0;    ///< Incremental codeword maintenances.
  uint64_t prechecks = 0;         ///< Read-time verifications.
  uint64_t regions_audited = 0;
  uint64_t audit_failures = 0;
  uint64_t mprotect_calls = 0;    ///< Hardware scheme only.
  uint64_t pages_unprotected = 0; ///< Pages made writable (hardware).
};

}  // namespace cwdb

#endif  // CWDB_PROTECT_OPTIONS_H_
