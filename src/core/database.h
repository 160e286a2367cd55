#ifndef CWDB_CORE_DATABASE_H_
#define CWDB_CORE_DATABASE_H_

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include <condition_variable>
#include <mutex>
#include <thread>

#include "ckpt/checkpoint.h"
#include "common/result.h"
#include "common/slice.h"
#include "common/status.h"
#include "obs/flight_recorder.h"
#include "obs/forensics.h"
#include "obs/history.h"
#include "obs/postmortem.h"
#include "obs/metrics.h"
#include "obs/stats_server.h"
#include "obs/watchdog.h"
#include "protect/options.h"
#include "protect/protection.h"
#include "recovery/recovery.h"
#include "storage/db_image.h"
#include "storage/integrity.h"
#include "storage/shard_map.h"
#include "txn/table_ops.h"
#include "txn/txn_manager.h"
#include "wal/system_log.h"

namespace cwdb {

/// Background metrics persistence. With a nonzero interval the Database's
/// ticker thread rewrites every file DumpMetrics() writes on that cadence,
/// so the snapshot (schema-versioned, wall-clock stamped) survives a
/// process death between explicit DumpMetrics() calls.
struct MetricsOptions {
  uint64_t flush_interval_ms = 0;  ///< 0 = no background flushing.
};

/// Configuration for opening a cwdb database.
struct DatabaseOptions {
  /// Directory holding the stable log, the two checkpoint images and the
  /// anchor. Created if absent.
  std::string path;

  /// Size of the in-memory database image. The whole database lives in
  /// memory (Dalí model); disk is only for the log and checkpoints.
  uint64_t arena_size = 64ull << 20;

  /// Database page size (dirty tracking / checkpoint granularity). Must be
  /// a power of two and a multiple of the OS page size.
  uint32_t page_size = 8192;

  /// Number of engine shards. The arena is partitioned into this many
  /// contiguous page/region-aligned spans (ShardMap); the protection
  /// latches and codeword tables, the lock-manager segments and the WAL
  /// append staging are all instantiated per shard, so transactions on
  /// disjoint shards share no hot state. 0 = one shard per hardware
  /// thread; 1 = the pre-sharding single-shard layout.
  size_t shards = 0;

  /// Corruption-protection scheme and region size (paper §3, Table 2).
  ProtectionOptions protection;

  /// Audit the whole database after writing each checkpoint and certify it
  /// free of corruption (§4.2). Only meaningful for codeword schemes.
  bool certify_checkpoints = true;

  /// Prior-state recovery at open (§4.1): replay the log only up to this
  /// LSN, discarding (and reporting) every transaction that committed at
  /// or after it. Use together with RestoreArchive to rewind past the
  /// live checkpoints. kInvalidLsn = recover to the latest state.
  Lsn recover_to_lsn = kInvalidLsn;

  /// Periodic metrics flushing (see MetricsOptions).
  MetricsOptions metrics;

  /// Span tracing (src/obs/tracer.h). Fraction of transactions whose whole
  /// commit pipeline — begin, lock waits, read prechecks, codeword folds,
  /// WAL staging, the cross-thread group-commit hop, fsync, ack — is
  /// recorded as a span tree. 0 (the default) compiles the hot path down to
  /// one relaxed load per instrumentation site; 1.0 traces everything.
  /// Checkpoints, audit sweeps and recovery are always traced while the
  /// rate is nonzero (forced roots — rare and each one interesting).
  double trace_sample_rate = 0.0;
  /// Seed for the deterministic sampler: the same seed and rate pick the
  /// same transactions on every run (reproducible traces).
  uint64_t trace_seed = 0x9e3779b97f4a7c15ull;
  /// Capacity (spans) of each thread's lock-free span ring.
  size_t trace_ring_capacity = 4096;

  /// Stall watchdog over the commit pipeline (see WatchdogOptions). Off by
  /// default; when enabled it watches the group-commit drainer, the
  /// background auditor, checkpoint wall time and (opt-in) transaction age,
  /// filing a stall dossier into incidents.jsonl and degrading /healthz.
  WatchdogOptions watchdog;

  /// Serve GET /metrics, /incidents and /healthz on 127.0.0.1 from a
  /// background thread (see StatsServer). The bound port is available from
  /// stats_port() once open.
  bool serve_stats = false;
  StatsServerOptions stats_server;

  /// Crash-surviving flight recorder (src/obs/flight_recorder.h): a
  /// mmap-backed black box at <dir>/blackbox.bin holding the event-trace
  /// ring, LSN frontiers, armed crash points and watchdog state, plus
  /// an optional fatal-signal handler that appends a crash record. At
  /// reopen after an unclean death the box is rotated aside, a kCrash
  /// dossier is filed, and `cwdb_ctl postmortem` renders the episode.
  FlightRecorderOptions flight_recorder;
};

/// Result of an explicit audit (§3.2).
struct AuditReport {
  bool clean = true;
  Lsn audit_lsn = 0;  ///< Log position at which this audit began.
  std::vector<CorruptRange> ranges;
  uint64_t regions_audited = 0;
};

/// Aggregate counters for experiments.
struct DatabaseStats {
  uint64_t commits = 0;
  uint64_t aborts = 0;
  uint64_t checkpoints = 0;
  uint64_t log_bytes_appended = 0;
  uint64_t log_flushes = 0;
  ProtectionStats protection;
  uint64_t protection_space_overhead_bytes = 0;
};

/// cwdb: a Dalí-style main-memory storage manager whose persistent data is
/// guarded against addressing errors by the codeword schemes of Bohannon et
/// al., ICDE 1999.
///
/// Typical use:
///
///   cwdb::DatabaseOptions opts;
///   opts.path = "/tmp/mydb";
///   opts.protection.scheme = cwdb::ProtectionScheme::kReadLog;
///   opts.protection.region_size = 512;
///   auto db = cwdb::Database::Open(opts);
///   auto txn = (*db)->Begin();
///   auto table = (*db)->CreateTable(*txn, "accounts", 100, 1000);
///   ...
///   (*db)->Commit(*txn);
///
/// Thread-safety: distinct transactions may run on distinct threads;
/// a single Transaction must not be used concurrently. Audit() and
/// Checkpoint() may run concurrently with transactions; concurrent
/// Checkpoint() and Archive() calls run one at a time. CrashAndRecover()
/// requires external quiescence (no in-flight calls on other threads).
class Database {
 public:
  /// Opens (creating or recovering) the database. If the previous incarnation
  /// noted corruption (a failed audit wrote corrupt.note), or the scheme is
  /// Codeword Read Logging (which per §4.3 runs corruption recovery on every
  /// restart), the delete-transaction recovery algorithm runs and its report
  /// is available via last_recovery_report().
  static Result<std::unique_ptr<Database>> Open(const DatabaseOptions& options);

  ~Database();
  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  // -- Transactions --

  Result<Transaction*> Begin();
  /// Commits (forcing the log) and invalidates `txn`.
  Status Commit(Transaction* txn);
  /// Rolls back and invalidates `txn`.
  Status Abort(Transaction* txn);

  // -- Schema and records --

  /// Savepoints: partial rollback within a transaction. The savepoint id
  /// is valid until the transaction ends or a rollback passes it; rolling
  /// back keeps the transaction active (and its locks held) while the
  /// work after the savepoint is undone through the normal logged-
  /// compensation machinery — so a crash mid-partial-rollback recovers
  /// like any other.
  Result<uint64_t> CreateSavepoint(Transaction* txn) {
    return txns_->CreateSavepoint(txn);
  }
  Status RollbackToSavepoint(Transaction* txn, uint64_t savepoint) {
    return txns_->RollbackToSavepoint(txn, savepoint);
  }

  Result<TableId> CreateTable(Transaction* txn, const std::string& name,
                              uint32_t record_size, uint64_t capacity);
  /// Looks up a table by name (NotFound if absent).
  Result<TableId> FindTable(const std::string& name) const;
  Result<RecordId> Insert(Transaction* txn, TableId table, Slice record);
  Status Delete(Transaction* txn, TableId table, uint32_t slot);
  Status Update(Transaction* txn, TableId table, uint32_t slot,
                uint32_t field_off, Slice data);
  Status Read(Transaction* txn, TableId table, uint32_t slot,
              std::string* out);
  Status ReadField(Transaction* txn, TableId table, uint32_t slot,
                   uint32_t field_off, uint32_t len, void* out);
  /// Iterates the live records of a table in slot order through the
  /// protected read path (see table_ops::Scan).
  Status Scan(Transaction* txn, TableId table,
              const std::function<Status(uint32_t slot, Slice record)>& fn) {
    return table_ops::Scan(*txns_, txn, table, fn);
  }

  /// Raw in-place update of mapped bytes (application direct access). Goes
  /// through the prescribed interface; takes no record locks.
  Status RawUpdate(Transaction* txn, DbPtr off, Slice data);
  uint64_t CountRecords(TableId table) const;

  // -- Maintenance --

  /// Takes a ping-pong checkpoint (certified by a full audit when the
  /// scheme has codewords and certify_checkpoints is set). On a failed
  /// certification the corruption is noted and kCorruption returned; call
  /// CrashAndRecover() to run corruption recovery.
  Status Checkpoint();

  /// Audits every protection region now (§3.2). On failure the corruption
  /// note is written so that CrashAndRecover() (or the next Open) runs the
  /// delete-transaction algorithm.
  Result<AuditReport> Audit();

  /// Cache-recovery model (§4.1): repairs the given directly-corrupted
  /// regions in place from the checkpoint + redo log. Requires no active
  /// transactions. Valid when indirect corruption is impossible (Read
  /// Prechecking) or known absent.
  Status CacheRecover(const std::vector<CorruptRange>& ranges);

  /// Durably notes externally-detected corruption (a failed background
  /// audit slice, an application integrity check, an operator) so the next
  /// recovery — crash-induced or explicit — runs the delete-transaction
  /// algorithm over it.
  Status ReportCorruption(const std::vector<CorruptRange>& ranges);

  /// In-place error-correcting repair of detected-corrupt ranges from the
  /// parity tier. Files a detection dossier (as `source`), attempts the
  /// reconstruction, and on any success files a linked kRepair dossier.
  /// Returns true when every range was repaired (the codewords re-verify
  /// and no corruption note is needed); ranges beyond the correction
  /// budget are returned through *unrepaired (may be null) and still need
  /// delete-transaction recovery.
  bool TryRepairRanges(const std::vector<CorruptRange>& ranges,
                       IncidentSource source,
                       std::vector<CorruptRange>* unrepaired = nullptr);

  /// Explicit corruption recovery for errors found by means other than a
  /// codeword audit (§4: "if other audit mechanisms ... are available to
  /// determine the location and a lower bound on the time of the error,
  /// the recovery mechanisms described in this section can aid in the
  /// subsequent recovery"). `not_before_lsn`, if given, is that lower
  /// bound (e.g. from CurrentLsn() before a suspect deployment); otherwise
  /// the last clean audit is assumed.
  Status RecoverFromCorruption(const std::vector<CorruptRange>& ranges,
                               std::optional<Lsn> not_before_lsn = {});

  /// Durably records that a clean full audit began at `audit_lsn`
  /// (advances Audit_SN). Used by the background auditor.
  Status RecordCleanAudit(Lsn audit_lsn);

  /// Prior-state corruption recovery model (§4.1): returns the database to
  /// a transaction-consistent state as of `point` (an earlier CurrentLsn
  /// value) by replaying only the log below it. Every transaction that
  /// committed at or after `point` is discarded and listed in
  /// last_recovery_report().deleted_txns — unlike the delete-transaction
  /// model, which removes only the provably affected ones. Fails if the
  /// active checkpoint postdates `point` (an archived checkpoint would be
  /// needed). Like the paper, the log is not amended: a crash before this
  /// call's final checkpoint completes reverts to latest-state recovery.
  Status RecoverToPriorState(Lsn point);

  /// Takes a fresh certified checkpoint and copies it (image, metadata,
  /// stable log) into `archive_dir`, returning the archive's CK_end.
  /// Restoring the archive into a cold database directory (see
  /// ckpt/archive.h RestoreArchive) enables RecoverToPriorState for points
  /// older than the live ping-pong checkpoints (§4.1).
  Result<Lsn> Archive(const std::string& archive_dir);

  /// Current end of the system log — usable as a logical timestamp for
  /// RecoverFromCorruption / lineage queries.
  Lsn CurrentLsn() const { return log_->CurrentLsn(); }

  /// Küspert-style structural audit of the image's control structures
  /// (§4, [10]): layout invariants of the header, table directory and
  /// allocation bitmaps. Complements the codeword audit with a semantic
  /// diagnosis; the implicated ranges can be fed to RecoverFromCorruption.
  std::vector<IntegrityViolation> VerifyIntegrity() const {
    return CheckImageIntegrity(*image_);
  }

  /// Simulates a process crash and runs restart recovery in place: the
  /// un-flushed log tail, the ATT, lock tables and (if noted) corruption
  /// state are discarded exactly as a real crash would, then recovery
  /// rebuilds the image from the active checkpoint and the stable log.
  /// All outstanding Transaction* become invalid.
  Status CrashAndRecover();

  /// Clean shutdown: takes a final checkpoint, flushes the log so the next
  /// Open recovers instantly (nothing to redo), and persists the metrics
  /// snapshot for post-mortem `cwdb_ctl stats`. Optional — destroying the
  /// Database without it is always safe (recovery replays the log) and is
  /// exactly what a crash looks like.
  ///
  /// Ordering matters: the log flush drains the group-commit queue (every
  /// staged shard batch reaches the stable file), and the background
  /// workers (ticker, watchdog, stats server) are stopped *before* the
  /// final metrics dump — otherwise a periodic flush could overwrite the
  /// shutdown snapshot with a stale capture, or the dump could miss flush
  /// counters still being bumped by in-flight background work.
  Status Close() {
    CWDB_CHECK(txns_->att().empty())
        << "Close() with active transactions; commit or abort them first";
    CWDB_RETURN_IF_ERROR(Checkpoint());
    CWDB_RETURN_IF_ERROR(log_->Flush());
    StopBackgroundWork();
    Result<std::string> snap = DumpMetrics();
    // Marked last: everything above can still die mid-write and the box
    // would rightly read as unclean.
    if (flight_recorder_ != nullptr) flight_recorder_->MarkCleanShutdown();
    return snap.ok() ? Status::OK() : snap.status();
  }

  /// Report of the most recent recovery (empty if none ran).
  const RecoveryReport& last_recovery_report() const { return last_report_; }

  DatabaseStats GetStats() const;

  /// Captures the full metrics snapshot (counters, gauges, histograms and
  /// the event trace), persists it as JSON to <dir>/metrics.json — which is
  /// what `cwdb_ctl stats <dir>` re-emits — and returns the same JSON.
  /// Also rewrites the black box's metrics sample and, with tracing on,
  /// writes spans.json. The ticker's periodic flush is this same call; one
  /// mutex serializes them, since every file is staged in `<file>.tmp`.
  Result<std::string> DumpMetrics();

  /// The database-wide metrics registry. Every component of this database
  /// (txn manager, system log, protection, checkpointer, auditor) reports
  /// into it; per-database rather than process-global so benchmarks can
  /// compare schemes across several open databases in one process.
  MetricsRegistry* metrics() { return &metrics_; }

  /// Corruption-incident dossier recorder (always present once open; every
  /// detection path files into <dir>/incidents.jsonl through it).
  ForensicsRecorder* forensics() { return forensics_.get(); }

  /// Stall watchdog, or nullptr when options.watchdog.enabled is false.
  /// Components (the background auditor) register probes against it.
  Watchdog* watchdog() { return watchdog_.get(); }

  /// Integrity coverage map: per-shard last-audited LSN/wall-time and the
  /// live sweep cursor (always present; the background auditor and full
  /// audits publish into it).
  ScrubMap* scrub() { return scrub_.get(); }

  /// The crash-surviving black box, or nullptr when
  /// options.flight_recorder.enabled is false (or its mapping failed —
  /// the database runs fine without one).
  FlightRecorder* flight_recorder() { return flight_recorder_.get(); }

  /// Decoded black box of the previous incarnation when it died uncleanly
  /// (rotated to blackbox.prev.bin at this open); nullptr otherwise.
  const BlackBoxReport* prior_blackbox() const {
    return prior_blackbox_ ? &*prior_blackbox_ : nullptr;
  }
  /// Id of the kCrash dossier filed for that death (0 = none filed).
  uint64_t crash_incident_id() const { return crash_incident_id_; }

  /// Port of the live stats endpoint, or 0 when serve_stats is off.
  uint16_t stats_port() const {
    return stats_server_ != nullptr ? stats_server_->port() : 0;
  }

  // -- Direct access (application code, fault injection, tests) --

  /// Base of the mapped database image. Writing through this pointer
  /// without BeginUpdate/EndUpdate is exactly the class of software error
  /// the paper studies.
  uint8_t* UnsafeRawBase() { return image_->base(); }
  uint64_t arena_size() const { return image_->size(); }

  /// The static shard partition of the arena (single-shard when
  /// options.shards resolved to 1).
  const ShardMap& shard_map() const { return shard_map_; }

  DbImage* image() { return image_.get(); }
  ProtectionManager* protection() { return protection_.get(); }
  TxnManager* txns() { return txns_.get(); }
  SystemLog* log() { return log_.get(); }
  Checkpointer* checkpointer() { return checkpointer_.get(); }
  const DatabaseOptions& options() const { return options_; }

 private:
  explicit Database(const DatabaseOptions& options);

  Status OpenImpl();
  Status RunRecovery();
  /// Checkpoint() with checkpoint_mu_ already held.
  Status CheckpointLocked();
  /// Writes the corruption note for a failed audit/certification, filing
  /// the incident dossier whose id the note carries.
  Status NoteCorruption(const std::vector<CorruptRange>& ranges,
                        IncidentSource source = IncidentSource::kAudit);
  Lsn LastCleanAuditLsn() const;
  /// Joins the ticker and stops the watchdog and stats server
  /// (idempotent).
  void StopBackgroundWork();
  /// The ticker thread: DumpMetrics() every metrics.flush_interval_ms.
  void TickerLoop();
  /// Refreshes the gauges derived at read time (scrub age, process
  /// stats), then captures the registry: what DumpMetrics and GET /metrics
  /// export.
  MetricsSnapshot CaptureMetrics();

  DatabaseOptions options_;
  DbFiles files_;
  ShardMap shard_map_;
  /// Declared before metrics_ so it outlives the registry, whose event
  /// ring lives in this box's mapping while the recorder is on — and so
  /// every component that writes into it (the system log holds a bare
  /// pointer) dies first. ~Database clears the crashpoint observer.
  std::unique_ptr<FlightRecorder> flight_recorder_;
  /// Declared before the components so it is destroyed after them — every
  /// component holds bare Counter*/Histogram* pointers into it.
  MetricsRegistry metrics_;
  std::optional<BlackBoxReport> prior_blackbox_;
  uint64_t crash_incident_id_ = 0;
  std::unique_ptr<DbImage> image_;
  /// Before protection_ (which keeps a bare pointer to it) so it outlives
  /// every component that files incidents.
  std::unique_ptr<ForensicsRecorder> forensics_;
  std::unique_ptr<ProtectionManager> protection_;
  std::unique_ptr<SystemLog> log_;
  std::unique_ptr<TxnManager> txns_;
  std::unique_ptr<Checkpointer> checkpointer_;
  /// After the components it probes (destroyed first, so no probe callback
  /// can outlive its target); probes hold bare pointers into log_/
  /// checkpointer_/txns_, and its poll thread writes into the box.
  std::unique_ptr<Watchdog> watchdog_;
  /// Read by every metrics capture — StopBackgroundWork joins the ticker
  /// and stops the stats server before it is destroyed.
  std::unique_ptr<ScrubMap> scrub_;
  RecoveryReport last_report_;

  std::unique_ptr<StatsServer> stats_server_;
  /// Serializes DumpMetrics: explicit calls and the ticker's flushes.
  std::mutex flush_mu_;
  /// One checkpoint at a time: two passes would read the same anchor,
  /// target the same image and share WriteFileAtomic's temp file names.
  /// Held across the pass and its audit-meta write, by Archive() until
  /// the image it copies is safe from the next pass, and by every other
  /// audit.meta replace (Audit(), RecordCleanAudit()), which shares the
  /// same temp file name.
  std::mutex checkpoint_mu_;
  std::mutex ticker_mu_;
  std::condition_variable ticker_cv_;
  bool stop_ticker_ = false;  ///< Guarded by ticker_mu_.
  std::thread ticker_;
};

}  // namespace cwdb

#endif  // CWDB_CORE_DATABASE_H_
