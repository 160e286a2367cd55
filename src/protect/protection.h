#ifndef CWDB_PROTECT_PROTECTION_H_
#define CWDB_PROTECT_PROTECTION_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/codeword.h"
#include "common/result.h"
#include "common/status.h"
#include "obs/metrics.h"
#include "protect/options.h"
#include "storage/db_image.h"
#include "storage/layout.h"

namespace cwdb {

class ForensicsRecorder;
class Latch;
enum class IncidentSource : uint8_t;

/// Hook points of the prescribed update interface. The transaction layer
/// calls BeginUpdate / EndUpdate (or AbortUpdate) around every in-place
/// physical update and PrecheckRead before returning read data; the
/// concrete manager implements a protection scheme from the paper.
///
/// Contract: at most one update handle may be outstanding per thread of
/// control, and no PrecheckRead may be issued by a transaction between its
/// own BeginUpdate and EndUpdate (a precheck that blocks a gate the
/// transaction has joined would wait for itself).
class ProtectionManager {
 public:
  /// Opaque per-update state carried from BeginUpdate to EndUpdate.
  struct UpdateHandle {
    DbPtr off = 0;
    uint32_t len = 0;
    std::vector<uint64_t> pages;  ///< Exposed pages (Memory Protection).
  };

  virtual ~ProtectionManager() = default;

  const ProtectionOptions& options() const { return options_; }
  /// Point-in-time snapshot of the scheme's counters (race-free: the
  /// underlying instruments are sharded atomics on the registry).
  ProtectionStats stats() const;
  /// Zeroes every protect.* counter and histogram on the registry.
  void ResetStats() { metrics_->Reset("protect."); }
  /// The registry this scheme reports into (the owning Database's, or a
  /// private one when constructed standalone).
  MetricsRegistry* metrics() const { return metrics_; }

  /// Called before the bytes of [off, off+len) are modified. Acquires
  /// whatever latches / page permissions the scheme needs.
  virtual Status BeginUpdate(DbPtr off, uint32_t len, UpdateHandle* h) = 0;

  /// Called after the bytes are modified, with the undo image (`before`,
  /// h->len bytes). Performs codeword maintenance and releases latches.
  /// This is the point where the paper's codeword-applied flag is cleared.
  virtual void EndUpdate(const UpdateHandle& h, const uint8_t* before) = 0;

  /// Rollback of an in-flight update: the caller restored the undo image
  /// already; the codeword was never advanced, so only latches / page
  /// permissions are released (paper §3.1: "the undo image for this update
  /// should be applied without updating the codeword").
  virtual void AbortUpdate(const UpdateHandle& h) = 0;

  /// Read Prechecking (§3.1): verifies every region covering [off,
  /// off+len) against its codeword with no update window open on it.
  /// Returns Corruption on mismatch. No-op for non-precheck schemes.
  virtual Status PrecheckRead(DbPtr off, uint32_t len) = 0;

  /// Audits every region of the image (§3.2). Appends failing regions to
  /// *corrupt (may be null to just get the status). Returns Corruption if
  /// any region failed. For schemes without codewords, returns OK.
  virtual Status AuditAll(std::vector<CorruptRange>* corrupt) = 0;

  /// Audits only the regions covering [off, off+len).
  virtual Status AuditRange(DbPtr off, uint64_t len,
                            std::vector<CorruptRange>* corrupt) = 0;

  /// Parallel variant of AuditRange: partitions the covered regions across
  /// up to `width` sweep lanes (capped by the scheme's sweep pool). Same
  /// contract as AuditRange — corrupt ranges arrive in ascending offset
  /// order and stats totals match the sequential pass. Schemes without a
  /// pool fall back to the sequential audit.
  virtual Status AuditRangeParallel(DbPtr off, uint64_t len, size_t width,
                                    std::vector<CorruptRange>* corrupt) {
    (void)width;
    return AuditRange(off, len, corrupt);
  }

  /// Re-derives all protection state from the current image bytes (called
  /// after a checkpoint image is loaded and after recovery writes).
  virtual Status ResetFromImage() = 0;

  /// Recomputes only the codewords of the regions covering [off, off+len)
  /// from the image bytes (cache recovery after a region repair; other
  /// regions keep their detection state). Default no-op.
  virtual Status RecomputeRegions(DbPtr off, uint64_t len) {
    (void)off;
    (void)len;
    return Status::OK();
  }

  /// Hardware scheme: temporarily make the whole image writable (recovery,
  /// checkpoint load, fault injection harness teardown). No-op otherwise.
  virtual Status ExposeAll() { return Status::OK(); }
  /// Re-arm protection after ExposeAll.
  virtual Status ReprotectAll() { return Status::OK(); }

  /// Bytes of memory the scheme spends outside the image (codeword table).
  virtual uint64_t SpaceOverheadBytes() const { return 0; }

  /// Forensics probe: for the protection region containing `off`, reports
  /// the stored codeword and the codeword recomputed from the current image
  /// bytes (their XOR is the corruption delta a dossier records). Returns
  /// false for schemes that keep no codeword table. Blocks the region's
  /// gate (the auditor's consistent-snapshot protocol); must not be called
  /// from inside an update window on it.
  virtual bool RegionCodewords(DbPtr off, codeword_t* stored,
                               codeword_t* computed) {
    (void)off;
    (void)stored;
    (void)computed;
    return false;
  }

  /// Detection paths inside the scheme (read prechecks) file incident
  /// dossiers here when set. Owned by the Database; may be null.
  void set_forensics(ForensicsRecorder* forensics) { forensics_ = forensics; }
  ForensicsRecorder* forensics() const { return forensics_; }

  /// What one in-place repair attempt did. `repair_deltas[i]` is the XOR of
  /// `repaired[i]`'s codeword before and after reconstruction — the
  /// codeword-space image of the corruption the repair removed.
  struct RepairOutcome {
    std::vector<CorruptRange> repaired;    ///< Ascending offset order.
    std::vector<CorruptRange> unrepaired;  ///< Beyond the correction budget.
    std::vector<codeword_t> repair_deltas; ///< Parallel to `repaired`.
  };

  /// The linked dossier pair one RepairWithForensics call files.
  struct RepairEpisode {
    uint64_t detection_incident = 0;  ///< Dossier of the bytes as found.
    uint64_t repair_incident = 0;     ///< kRepair dossier (0 = none filed).
    RepairOutcome outcome;
    bool fully_repaired = false;
  };

  /// Engine latches a live repair must respect, installed by the owning
  /// Database. The checkpoint latch (taken shared) orders the repair's
  /// image write against the checkpointer's exclusive copy phase, exactly
  /// like a prescribed update window. Null entries are skipped — standalone
  /// managers (tests, cwdb_ctl cold images) repair without them.
  struct RepairHooks {
    Latch* checkpoint_latch = nullptr;
  };
  void set_repair_hooks(const RepairHooks& hooks) { repair_hooks_ = hooks; }

  /// True when the scheme maintains an error-correcting parity tier and can
  /// attempt in-place reconstruction of flagged regions.
  virtual bool CanRepair() const { return false; }

  /// Attempts in-place reconstruction of the given corrupt ranges. Every
  /// input range lands in outcome->repaired or outcome->unrepaired; image
  /// bytes are only modified for repaired ranges, and only with
  /// reconstructions that re-verified against the stored codeword. Default:
  /// nothing is repairable.
  virtual Status TryRepair(const std::vector<CorruptRange>& ranges,
                           RepairOutcome* outcome) {
    outcome->unrepaired = ranges;
    return Status::OK();
  }

  /// Serializes the codeword table + parity columns into the checkpoint
  /// sidecar format (protect/parity_repair.h), stamped with `ck_end`.
  /// Returns false when the scheme keeps no parity tier. Caller must hold
  /// the checkpoint latch exclusively (the copy phase), which quiesces
  /// every update window.
  virtual bool SnapshotSidecar(uint64_t ck_end, std::string* blob) {
    (void)ck_end;
    (void)blob;
    return false;
  }

  /// The detect→locate→repair driver every detection path funnels through:
  /// files a detection dossier for `ranges` *before* touching the bytes
  /// (the dossier's hexdump is the only record of the corrupt state), runs
  /// TryRepair, and files a linked kRepair dossier for whatever was
  /// reconstructed. Returns true when every range was repaired — the caller
  /// may then proceed as if the corruption never happened; false means fall
  /// back to delete-transaction recovery with episode->outcome.unrepaired.
  /// `episode` may be null.
  bool RepairWithForensics(IncidentSource source, uint64_t lsn,
                           uint64_t last_clean_audit_lsn,
                           const std::vector<CorruptRange>& ranges,
                           std::string_view detail, RepairEpisode* episode);

  /// Recomputes the codeword of the bytes at [off, off+len) in `image`
  /// *without* consulting the stored table — used by recovery to evaluate
  /// logged read checksums against a recovered image. Folds from lane 0.
  static codeword_t ChecksumBytes(const DbImage& image, DbPtr off,
                                  uint32_t len);

  /// Creates the manager for `options.scheme`, reporting into `metrics`
  /// (nullptr = a private registry, for standalone construction).
  static Result<std::unique_ptr<ProtectionManager>> Create(
      const ProtectionOptions& options, DbImage* image,
      MetricsRegistry* metrics = nullptr);

 protected:
  /// Hot-path instruments, resolved once at construction.
  struct Instruments {
    Counter* updates;
    Counter* codeword_folds;
    Counter* prechecks;
    Counter* precheck_failures;
    Counter* regions_audited;
    Counter* audit_failures;
    Counter* mprotect_calls;
    Counter* pages_unprotected;
    Histogram* fold_latency_ns;      ///< Sampled 1-in-64.
    Histogram* precheck_latency_ns;  ///< Sampled 1-in-64.
    Counter* repair_attempts;        ///< RepairWithForensics invocations.
    Counter* repair_success;         ///< Regions reconstructed in place.
    Counter* repair_failed;          ///< Regions beyond the budget.
    Histogram* repair_latency_ns;    ///< Per TryRepair call.
  };

  ProtectionManager(const ProtectionOptions& options, DbImage* image,
                    MetricsRegistry* metrics);

  ProtectionOptions options_;
  DbImage* image_;
  std::unique_ptr<MetricsRegistry> own_metrics_;
  MetricsRegistry* metrics_;
  ForensicsRecorder* forensics_ = nullptr;
  RepairHooks repair_hooks_;
  Instruments ins_;
};

}  // namespace cwdb

#endif  // CWDB_PROTECT_PROTECTION_H_
