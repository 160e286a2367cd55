#ifndef CWDB_CKPT_CHECKPOINT_H_
#define CWDB_CKPT_CHECKPOINT_H_

#include <atomic>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "protect/protection.h"
#include "storage/db_image.h"
#include "txn/txn_manager.h"
#include "wal/system_log.h"

namespace cwdb {

/// Per-database file layout inside the database directory.
struct DbFiles {
  explicit DbFiles(const std::string& dir) : dir_(dir) {}
  std::string SystemLog() const { return dir_ + "/system.log"; }
  std::string CkptImage(int which) const {
    return dir_ + (which == 0 ? "/ckpt_A.img" : "/ckpt_B.img");
  }
  std::string CkptMeta(int which) const {
    return dir_ + (which == 0 ? "/ckpt_A.meta" : "/ckpt_B.meta");
  }
  /// Parity sidecar snapshotted with each checkpoint image: the per-region
  /// codewords + XOR parity columns the image was written under, used to
  /// verify (and repair) the image bytes at load time. Stale/missing/torn
  /// sidecars are ignored, never an error.
  std::string CkptParity(int which) const {
    return dir_ + (which == 0 ? "/ckpt_A.parity" : "/ckpt_B.parity");
  }
  std::string Anchor() const { return dir_ + "/cur_ckpt"; }
  std::string CorruptNote() const { return dir_ + "/corrupt.note"; }
  std::string AuditMeta() const { return dir_ + "/audit.meta"; }
  /// Metrics snapshot persisted by Database::DumpMetrics / Close, re-emitted
  /// by `cwdb_ctl stats`.
  std::string MetricsFile() const { return dir_ + "/metrics.json"; }
  /// Durable corruption-incident dossiers, one JSON object per line,
  /// appended by the ForensicsRecorder at every detection.
  std::string IncidentsFile() const { return dir_ + "/incidents.jsonl"; }
  /// Implication-chain graph written by the last corruption recovery,
  /// rendered by `cwdb_ctl explain-recovery`.
  std::string ProvenanceFile() const {
    return dir_ + "/recovery_provenance.json";
  }
  /// Span dump written by Database::DumpMetrics / Close when tracing is
  /// enabled; `cwdb_ctl trace-export` / `spans` read it back.
  std::string SpansFile() const { return dir_ + "/spans.json"; }
  /// Crash-surviving flight-recorder mapping for the live incarnation.
  std::string BlackBox() const { return dir_ + "/blackbox.bin"; }
  /// Prior incarnation's box, rotated aside at reopen after an unclean
  /// death so `cwdb_ctl postmortem` can read the episode offline.
  std::string BlackBoxPrev() const { return dir_ + "/blackbox.prev.bin"; }
  const std::string& dir() const { return dir_; }

 private:
  std::string dir_;
};

/// Metadata stored alongside each checkpoint image.
struct CheckpointMeta {
  /// The checkpoint image is update-consistent with the log at CK_end:
  /// every record below CK_end that reached the stable log is reflected in
  /// the image, and no partial physical update is (paper §4.3 requires an
  /// update-consistent checkpoint for delete-transaction recovery).
  Lsn ck_end = 0;
  std::string att_blob;  ///< Checkpointed ATT with local undo logs.
};

/// Ping-pong checkpointer (paper §2.1): dirty pages are written alternately
/// to two checkpoint images Ckpt_A / Ckpt_B; the anchor file cur_ckpt names
/// the most recent complete one and is toggled atomically after the image,
/// the ATT and the metadata are durable.
///
/// A checkpoint here is update-consistent by construction: the image pages
/// and the ATT are copied while the checkpoint latch is held exclusively
/// (physical updates hold it shared for their whole update window), so no
/// partial update is ever captured. Disk writes and the certifying audit
/// happen after the latch is released.
class Checkpointer {
 public:
  Checkpointer(const DbFiles& files, DbImage* image, TxnManager* txns,
               SystemLog* log, ProtectionManager* protection,
               MetricsRegistry* metrics = nullptr);

  /// For a fresh database: writes a full checkpoint to image A and points
  /// the anchor at it.
  Status InitializeFresh();

  /// Takes one checkpoint. If `certify` is true, the entire database is
  /// audited after the image is written (paper §4.2, "Generating
  /// Checkpoints Free of Corruption"); on audit failure the anchor is NOT
  /// toggled, the failing regions are reported through *corrupt, and
  /// kCorruption is returned.
  Status Checkpoint(bool certify, std::vector<CorruptRange>* corrupt);

  /// Reads the anchor; returns 0 (A) or 1 (B), or NotFound if none.
  Result<int> ReadAnchor() const;

  /// Loads the active checkpoint image into the live arena and returns its
  /// metadata. Used by restart recovery.
  Result<CheckpointMeta> LoadActive();

  /// Reads only the metadata of the active checkpoint (cache recovery).
  Result<CheckpointMeta> ReadActiveMeta() const;

  /// Reads bytes [off, off+len) of the active checkpoint image into *out
  /// without touching the live arena (cache recovery repairs regions from
  /// the certified-clean disk image).
  Status ReadImageBytes(DbPtr off, uint64_t len, void* out) const;

  uint64_t checkpoints_taken() const { return ins_.checkpoints->Value(); }
  uint64_t pages_written_last() const { return pages_written_last_; }

  /// True while a checkpoint pass is running — the watchdog's checkpoint
  /// probe pairs this with checkpoints_taken() as the progress value.
  bool in_flight() const { return in_flight_.load(std::memory_order_acquire); }

 private:
  Status WriteCheckpointTo(int which, bool certify,
                           std::vector<CorruptRange>* corrupt);
  /// The durability half of a checkpoint: log flush, page writes, fsync,
  /// certification audit, metadata, anchor toggle. On failure the caller
  /// restores the cleared dirty bits. `trace` carries the pass's span
  /// context (unsampled when the tracer is off).
  Status WriteDurable(int which, const std::vector<uint64_t>& pages,
                      const std::string& page_bytes, Lsn ck_end,
                      std::string att_blob, bool have_sidecar,
                      const std::string& sidecar_blob, bool certify,
                      std::vector<CorruptRange>* corrupt,
                      const SpanContext& trace);
  Status WriteMeta(int which, const CheckpointMeta& meta);
  Result<CheckpointMeta> ReadMeta(int which) const;
  /// Closes the DESIGN §8 hole: verifies the freshly-loaded arena bytes
  /// against image `which`'s parity sidecar, repairs what the correction
  /// budget covers (filing a linked detection + kRepair dossier pair), and
  /// fails loudly (Corruption) only when damage exceeds the budget. A
  /// missing, torn or stale sidecar means "no verification possible" and
  /// returns OK.
  Status VerifyLoadedImage(int which, const CheckpointMeta& meta);

  struct Instruments {
    Counter* checkpoints;
    Counter* pages_written;
    Histogram* latency_ns;
  };

  DbFiles files_;
  DbImage* image_;
  TxnManager* txns_;
  SystemLog* log_;
  ProtectionManager* protection_;
  std::unique_ptr<MetricsRegistry> own_metrics_;
  MetricsRegistry* metrics_;
  Instruments ins_;
  uint64_t pages_written_last_ = 0;
  std::atomic<bool> in_flight_{false};
};

}  // namespace cwdb

#endif  // CWDB_CKPT_CHECKPOINT_H_
