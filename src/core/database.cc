#include "core/database.h"

#include <sys/stat.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstring>

#include "ckpt/archive.h"
#include "common/crashpoint.h"
#include "common/file_util.h"
#include "common/parallel.h"
#include "obs/process_stats.h"
#include "obs/trace_export.h"

namespace cwdb {

namespace {

/// Live span rings + the registry's clock anchors, ready for export.
SpanDump CaptureSpans(MetricsRegistry* metrics) {
  SpanDump dump;
  dump.captured_mono_ns = NowNs();
  dump.captured_wall_ns = WallNowNs();
  dump.boot_mono_ns = metrics->boot_mono_ns();
  dump.boot_wall_ns = metrics->boot_wall_ns();
  dump.spans = metrics->tracer()->Snapshot();
  return dump;
}

}  // namespace

Database::Database(const DatabaseOptions& options)
    : options_(options), files_(options.path) {}

Result<std::unique_ptr<Database>> Database::Open(
    const DatabaseOptions& options) {
  if (options.path.empty()) {
    return Status::InvalidArgument("database path required");
  }
  CWDB_RETURN_IF_ERROR(MakeDirs(options.path));
  std::unique_ptr<Database> db(new Database(options));
  CWDB_RETURN_IF_ERROR(db->OpenImpl());
  return db;
}

Database::~Database() {
  StopBackgroundWork();
  if (flight_recorder_ != nullptr) {
    // Detach the process-wide hook before any member dies; the recorder
    // itself (and its fatal handler) is torn down by member destruction,
    // after the components and the registry that write into it.
    crashpoint::SetArmObserver(nullptr);
    // An orderly destructor is not a crash, even without Close(): the
    // "unclean" signal means the process died with this incarnation still
    // live. (Unflushed work is a durability question the WAL answers; the
    // black box answers "did we die mid-flight".)
    flight_recorder_->MarkCleanShutdown();
  }
}

void Database::StopBackgroundWork() {
  // The ticker first: its flush reads the scrub map and writes the box, so
  // nothing may flush once teardown proceeds past here.
  {
    std::lock_guard<std::mutex> guard(ticker_mu_);
    stop_ticker_ = true;
  }
  ticker_cv_.notify_all();
  if (ticker_.joinable()) ticker_.join();
  if (watchdog_ != nullptr) watchdog_->Stop();
  if (stats_server_ != nullptr) stats_server_->Stop();
}

void Database::TickerLoop() {
  const auto flush =
      std::chrono::milliseconds(options_.metrics.flush_interval_ms);
  std::unique_lock<std::mutex> lock(ticker_mu_);
  while (!ticker_cv_.wait_for(lock, flush, [this] { return stop_ticker_; })) {
    lock.unlock();
    // A failed flush (full disk) only counts: the ticker must never take
    // the database down.
    metrics_
        .counter(DumpMetrics().ok() ? "obs.metrics_flushes"
                                    : "obs.metrics_flush_failures")
        ->Add();
    lock.lock();
  }
}

MetricsSnapshot Database::CaptureMetrics() {
  scrub_->UpdateGauges(NowNs());
  PublishProcessStats(
      &metrics_, SampleProcessStats(files_.dir(), metrics_.boot_mono_ns()));
  return metrics_.Capture();
}

Status Database::OpenImpl() {
  // Tracing is configured before any component exists: every subsystem
  // caches metrics_.tracer() freely, and with a zero rate the tracer stays
  // un-Configured — enabled() is one relaxed load of false everywhere.
  if (options_.trace_sample_rate > 0.0) {
    TracerOptions topts;
    topts.sample_rate = options_.trace_sample_rate;
    topts.seed = options_.trace_seed;
    topts.ring_capacity = options_.trace_ring_capacity;
    metrics_.tracer()->Configure(topts);
  }
  CWDB_ASSIGN_OR_RETURN(
      image_, DbImage::Create(options_.arena_size, options_.page_size));
  // One static partition of the arena drives every sharded component:
  // spans are aligned to both the page and the protection region, so
  // neither ever straddles a shard boundary. 0 = one shard per hardware
  // thread; ShardMap clamps if the arena is too small for the request.
  const uint64_t shard_align = std::max<uint64_t>(
      options_.page_size, options_.protection.region_size);
  size_t requested =
      options_.shards == 0 ? EffectiveConcurrency(0) : options_.shards;
  shard_map_ = ShardMap(options_.arena_size, requested, shard_align);
  options_.protection.shards = shard_map_.shard_count();
  options_.protection.shard_align = shard_align;
  // Flight recorder: stash the prior incarnation's black box first (a box
  // without the clean-shutdown mark is a crash episode — rotate it aside
  // for `cwdb_ctl postmortem` and remember it so a kCrash dossier can be
  // filed once forensics is up), then map a fresh box and move the event
  // ring into it before the first component that records exists.
  // Creation failure is not fatal: the database runs fine without a box.
  if (options_.flight_recorder.enabled) {
    Result<BlackBoxReport> prior = ReadBlackBox(files_.BlackBox());
    if (prior.ok() && !prior->clean_shutdown) {
      prior_blackbox_ = std::move(prior.value());
      if (std::rename(files_.BlackBox().c_str(),
                      files_.BlackBoxPrev().c_str()) != 0) {
        metrics_.counter("obs.blackbox_rotate_failures")->Add();
      }
    }
    FlightRecorderInfo info;
    info.arena_size = options_.arena_size;
    info.page_size = options_.page_size;
    info.shard_count = static_cast<uint32_t>(shard_map_.shard_count());
    info.scheme = ProtectionSchemeName(options_.protection.scheme);
    info.boot_mono_ns = metrics_.boot_mono_ns();
    info.boot_wall_ns = metrics_.boot_wall_ns();
    Result<std::unique_ptr<FlightRecorder>> fr =
        FlightRecorder::Create(files_.BlackBox(), info);
    if (fr.ok()) {
      flight_recorder_ = std::move(fr.value());
      flight_recorder_->SetArena(image_->base(), image_->size(), &shard_map_);
      metrics_.trace().MoveTo(flight_recorder_->trace_section());
      // Armed crash points mirror into the box as they change (the
      // observer is process-wide, like the crashpoint registry; the last
      // database to open owns it, and ~Database clears it).
      FlightRecorder* recorder = flight_recorder_.get();
      crashpoint::SetArmObserver([recorder](const std::string& armed) {
        recorder->NoteStatusText(blackbox::StatusSlot::kArmedCrashpoints,
                                 armed);
      });
      if (options_.flight_recorder.install_fatal_handler) {
        flight_recorder_->InstallFatalHandler();
      }
    } else {
      metrics_.counter("obs.blackbox_create_failures")->Add();
    }
  }

  CWDB_ASSIGN_OR_RETURN(
      protection_,
      ProtectionManager::Create(options_.protection, image_.get(), &metrics_));

  CWDB_ASSIGN_OR_RETURN(log_, SystemLog::Open(files_.SystemLog(), &metrics_,
                                              shard_map_.shard_count(),
                                              flight_recorder_.get()));
  txns_ = std::make_unique<TxnManager>(image_.get(), protection_.get(),
                                       log_.get(), &metrics_,
                                       shard_map_.shard_count());
  checkpointer_ = std::make_unique<Checkpointer>(
      files_, image_.get(), txns_.get(), log_.get(), protection_.get(),
      &metrics_);

  forensics_ = std::make_unique<ForensicsRecorder>(files_.dir(), image_.get(),
                                                   &metrics_);
  forensics_->set_scheme_name(
      ProtectionSchemeName(options_.protection.scheme));
  forensics_->set_codeword_probe(
      [this](DbPtr off, codeword_t* stored, codeword_t* computed) {
        return protection_->RegionCodewords(off, stored, computed);
      });
  forensics_->set_active_txns_fn([this] { return txns_->ActiveTxnIds(); });
  protection_->set_forensics(forensics_.get());
  // A live in-place repair writes image bytes, so it must order against
  // the checkpointer's copy phase like a prescribed update window.
  ProtectionManager::RepairHooks hooks;
  hooks.checkpoint_latch = &txns_->checkpoint_latch();
  protection_->set_repair_hooks(hooks);

  // A damaged WAL tail (a complete frame failing its CRC — not explainable
  // as a torn append) is a detection in its own right: file the dossier
  // before recovery truncates and moves on.
  const WalTailScan& tail = log_->tail_scan();
  if (tail.damaged) {
    char detail[160];
    std::snprintf(detail, sizeof(detail),
                  "WAL tail failed CRC at byte %" PRIu64 " of %" PRIu64
                  "; log truncated to last valid prefix %" PRIu64,
                  tail.damage_off, tail.file_bytes, tail.valid_bytes);
    forensics_->RecordIncident(IncidentSource::kWalCrc,
                               /*lsn=*/tail.valid_bytes, LastCleanAuditLsn(),
                               {}, detail);
  }

  if (FileExists(files_.Anchor())) {
    Status recovered = RunRecovery();
    if (recovered.IsCorruption()) {
      // The checkpoint/metadata needed for recovery is itself unusable —
      // worth a dossier even though the open fails.
      forensics_->RecordIncident(
          IncidentSource::kCheckpointMeta, /*lsn=*/0, LastCleanAuditLsn(), {},
          "recovery could not use the active checkpoint: " +
              recovered.ToString());
    }
    CWDB_RETURN_IF_ERROR(recovered);
  } else {
    // Fresh database: the image is already formatted; take checkpoint zero
    // so restart always has an anchor to start from.
    CWDB_RETURN_IF_ERROR(protection_->ResetFromImage());
    CWDB_RETURN_IF_ERROR(checkpointer_->InitializeFresh());
    CWDB_RETURN_IF_ERROR(WriteAuditMeta(files_.AuditMeta(), 0));
  }
  // Arm hardware protection only once the database is open for business
  // (recovery and formatting write the image directly).
  CWDB_RETURN_IF_ERROR(protection_->ReprotectAll());

  // The prior incarnation died uncleanly: file the crash episode as a
  // dossier, carrying its trace tail (translated onto this incarnation's
  // time base so the per-event wall stamps stay honest) and — when the
  // fatal handler attributed the fault to the arena — the faulting byte,
  // which RecordIncident resolves to page/table/record like any
  // corruption range.
  if (prior_blackbox_) {
    const BlackBoxReport& box = *prior_blackbox_;
    char detail[256];
    if (box.crash.valid) {
      std::snprintf(detail, sizeof(detail),
                    "prior incarnation (pid %llu) died on signal %d at "
                    "addr 0x%llx%s; durable_lsn=%llu logical_end=%llu; "
                    "black box rotated to blackbox.prev.bin",
                    static_cast<unsigned long long>(box.pid), box.crash.signal,
                    static_cast<unsigned long long>(box.crash.fault_addr),
                    box.crash.fault_in_arena ? " (in arena)" : "",
                    static_cast<unsigned long long>(box.durable_lsn),
                    static_cast<unsigned long long>(box.logical_end_lsn));
    } else {
      std::snprintf(detail, sizeof(detail),
                    "prior incarnation (pid %llu) died uncleanly with no "
                    "fatal-signal record (killed, or _exit at a crash "
                    "point); durable_lsn=%llu logical_end=%llu; black box "
                    "rotated to blackbox.prev.bin",
                    static_cast<unsigned long long>(box.pid),
                    static_cast<unsigned long long>(box.durable_lsn),
                    static_cast<unsigned long long>(box.logical_end_lsn));
    }
    ForensicsRecorder::IncidentExtras extras;
    extras.override_recent_events = true;
    extras.recent_events = box.events;
    for (TraceEvent& e : extras.recent_events) {
      const uint64_t wall = box.WallFromMono(e.t_ns);
      e.t_ns = wall == 0 ? 0
                         : metrics_.boot_mono_ns() +
                               (wall - metrics_.boot_wall_ns());
    }
    std::vector<CorruptRange> ranges;
    if (box.crash.valid && box.crash.fault_in_arena &&
        box.crash.fault_off < image_->size()) {
      ranges.push_back(CorruptRange{box.crash.fault_off, 1});
    }
    crash_incident_id_ = forensics_->RecordIncident(
        IncidentSource::kCrash, log_->CurrentLsn(), LastCleanAuditLsn(),
        ranges, detail, extras);
    metrics_.counter("obs.crash_dossiers_filed")->Add();
  }

  if (options_.watchdog.enabled) {
    watchdog_ = std::make_unique<Watchdog>(
        &metrics_, forensics_.get(),
        [this] { return log_->end_of_stable_log(); }, flight_recorder_.get());
    // Drainer: a requested flush whose stable frontier stops advancing.
    WatchdogProbe drainer;
    drainer.name = "wal.drainer";
    drainer.active = [this] { return log_->flush_pending(); };
    drainer.progress = [this] { return log_->end_of_stable_log(); };
    drainer.stall_ns = options_.watchdog.drainer_stall_ms * 1'000'000ull;
    watchdog_->AddProbe(std::move(drainer));
    // Checkpoint: a pass exceeding its SLO (progress = passes completed,
    // which only moves when one finishes).
    WatchdogProbe ckpt;
    ckpt.name = "checkpoint";
    ckpt.active = [this] { return checkpointer_->in_flight(); };
    ckpt.progress = [this] { return checkpointer_->checkpoints_taken(); };
    ckpt.stall_ns = options_.watchdog.checkpoint_slo_ms * 1'000'000ull;
    watchdog_->AddProbe(std::move(ckpt));
    // Oldest open transaction (opt-in): ids ascend, so the lowest active
    // id is unchanged exactly as long as that transaction stays open.
    if (options_.watchdog.txn_age_limit_ms > 0) {
      WatchdogProbe txn;
      txn.name = "txn.oldest";
      txn.active = [this] { return txns_->OldestActiveTxn() != 0; };
      txn.progress = [this] { return txns_->OldestActiveTxn(); };
      txn.stall_ns = options_.watchdog.txn_age_limit_ms * 1'000'000ull;
      watchdog_->AddProbe(std::move(txn));
    }
    watchdog_->Start(options_.watchdog.poll_interval_ms);
  }

  // Integrity coverage map: one entry per shard, published into scrub.*
  // gauges by the auditor and full audits.
  {
    std::vector<uint64_t> shard_lens(shard_map_.shard_count());
    for (size_t s = 0; s < shard_lens.size(); ++s)
      shard_lens[s] = shard_map_.ShardLen(s);
    scrub_ = std::make_unique<ScrubMap>(&metrics_, shard_lens);
  }

  if (options_.metrics.flush_interval_ms > 0) {
    ticker_ = std::thread([this] { TickerLoop(); });
  }
  if (options_.serve_stats) {
    stats_server_ = std::make_unique<StatsServer>();
    StatsServer::Hooks hooks;
    hooks.snapshot = [this] { return CaptureMetrics(); };
    hooks.incidents_jsonl = [this] {
      std::string body;
      if (!ReadFileToString(files_.IncidentsFile(), &body,
                            MissingFile::kTreatAsEmpty)
               .ok()) {
        body.clear();
      }
      return body;
    };
    hooks.healthy = [this] { return !FileExists(files_.CorruptNote()); };
    hooks.spans_json = [this] {
      return SpansToChromeJson(CaptureSpans(&metrics_));
    };
    hooks.degraded = [this] {
      return watchdog_ != nullptr ? watchdog_->DegradedReason()
                                  : std::string();
    };
    CWDB_RETURN_IF_ERROR(
        stats_server_->Start(options_.stats_server, std::move(hooks)));
  }
  return Status::OK();
}

Lsn Database::LastCleanAuditLsn() const {
  Result<Lsn> lsn = ReadAuditMeta(files_.AuditMeta());
  return lsn.ok() ? *lsn : 0;
}

Status Database::RunRecovery() {
  RecoveryOptions ropts;
  ropts.redo_limit = options_.recover_to_lsn;
  ropts.use_logged_checksums =
      options_.protection.scheme == ProtectionScheme::kCodewordReadLog;
  if (FileExists(files_.CorruptNote())) {
    CWDB_ASSIGN_OR_RETURN(ropts.note,
                          ReadCorruptionNote(files_.CorruptNote()));
    ropts.corruption_recovery = true;
  } else if (ropts.use_logged_checksums) {
    // §4.3 Extension: with codewords in read log records, corruption
    // recovery runs on every restart — it can detect corruption that
    // happened after the last audit but before a true crash.
    ropts.corruption_recovery = true;
    ropts.note.last_clean_audit_lsn = LastCleanAuditLsn();
  }
  RecoveryDriver driver(files_, image_.get(), txns_.get(), log_.get(),
                        protection_.get(), checkpointer_.get());
  CWDB_ASSIGN_OR_RETURN(last_report_, driver.Run(ropts));
  // A rewind-at-open is one-shot: its final checkpoint made the prior
  // state the new truth, so later recoveries go to the latest state.
  options_.recover_to_lsn = kInvalidLsn;
  return Status::OK();
}

Result<Transaction*> Database::Begin() { return txns_->Begin(); }

Status Database::Commit(Transaction* txn) { return txns_->Commit(txn); }

Status Database::Abort(Transaction* txn) { return txns_->Abort(txn); }

Result<TableId> Database::CreateTable(Transaction* txn,
                                      const std::string& name,
                                      uint32_t record_size,
                                      uint64_t capacity) {
  return table_ops::CreateTable(*txns_, txn, name, record_size, capacity);
}

Result<TableId> Database::FindTable(const std::string& name) const {
  TableId t = image_->FindTable(name);
  if (t == kMaxTables) return Status::NotFound("no such table: " + name);
  return t;
}

Result<RecordId> Database::Insert(Transaction* txn, TableId table,
                                  Slice record) {
  return table_ops::Insert(*txns_, txn, table, record);
}

Status Database::Delete(Transaction* txn, TableId table, uint32_t slot) {
  return table_ops::Delete(*txns_, txn, table, slot);
}

Status Database::Update(Transaction* txn, TableId table, uint32_t slot,
                        uint32_t field_off, Slice data) {
  return table_ops::Update(*txns_, txn, table, slot, field_off, data);
}

Status Database::Read(Transaction* txn, TableId table, uint32_t slot,
                      std::string* out) {
  return table_ops::ReadRecord(*txns_, txn, table, slot, out);
}

Status Database::ReadField(Transaction* txn, TableId table, uint32_t slot,
                           uint32_t field_off, uint32_t len, void* out) {
  return table_ops::ReadField(*txns_, txn, table, slot, field_off, len, out);
}

Status Database::RawUpdate(Transaction* txn, DbPtr off, Slice data) {
  return table_ops::RawUpdate(*txns_, txn, off, data);
}

uint64_t Database::CountRecords(TableId table) const {
  return table_ops::CountRecords(*image_, table);
}

Status Database::Checkpoint() {
  std::lock_guard<std::mutex> guard(checkpoint_mu_);
  return CheckpointLocked();
}

Status Database::CheckpointLocked() {
  const bool certify =
      options_.certify_checkpoints && options_.protection.UsesCodewords();
  // The certification audit begins no earlier than here.
  Lsn audit_lsn = log_->CurrentLsn();
  std::vector<CorruptRange> corrupt;
  Status s = checkpointer_->Checkpoint(certify, &corrupt);
  if (s.IsCorruption()) {
    CWDB_RETURN_IF_ERROR(
        NoteCorruption(corrupt, IncidentSource::kCertification));
    return s;
  }
  CWDB_RETURN_IF_ERROR(s);
  if (certify) {
    CWDB_RETURN_IF_ERROR(WriteAuditMeta(files_.AuditMeta(), audit_lsn));
  }
  return Status::OK();
}

Result<AuditReport> Database::Audit() {
  AuditReport report;
  // Mark the audit's position in the log: Audit_SN. A clean audit
  // certifies data read before this point.
  std::string payload;
  EncodeAuditBegin(&payload);
  report.audit_lsn = log_->Append(payload);
  metrics_.trace().Record(TraceEventType::kAuditPassBegin, report.audit_lsn,
                          0, 0);
  const uint64_t t0 = NowNs();
  uint64_t before = protection_->stats().regions_audited;
  Status s = protection_->AuditAll(&report.ranges);
  report.regions_audited = protection_->stats().regions_audited - before;
  metrics_.counter("audit.passes")->Add();
  metrics_.histogram("audit.pass_latency_ns")->Record(NowNs() - t0);
  metrics_.trace().Record(TraceEventType::kAuditPassEnd, report.audit_lsn,
                          report.regions_audited, report.ranges.size());
  if (s.IsCorruption()) {
    report.clean = false;
    CWDB_RETURN_IF_ERROR(NoteCorruption(report.ranges));
    return report;
  }
  CWDB_RETURN_IF_ERROR(s);
  report.clean = true;
  metrics_.counter("audit.clean_passes")->Add();
  // A clean full audit certifies every shard as of its begin LSN.
  if (scrub_ != nullptr) scrub_->NoteFullAudit(report.audit_lsn);
  CWDB_RETURN_IF_ERROR(RecordCleanAudit(report.audit_lsn));
  return report;
}

Status Database::NoteCorruption(const std::vector<CorruptRange>& ranges,
                                IncidentSource source) {
  // Detection moment: stamp each range against any pending injected fault
  // (detection-latency measurement) and into the flight recorder.
  for (const CorruptRange& r : ranges) {
    metrics_.NoteDetection(r.off, r.len);
    metrics_.trace().Record(TraceEventType::kCorruptionDetected,
                            log_->CurrentLsn(), r.off, r.len,
                            shard_map_.ShardOf(r.off));
  }
  metrics_.counter("audit.corruptions_noted")->Add(ranges.size());
  CorruptionNote note;
  note.last_clean_audit_lsn = LastCleanAuditLsn();
  note.ranges = ranges;
  if (forensics_ != nullptr) {
    // The dossier goes to incidents.jsonl first (it captures the image
    // bytes as found, before any recovery rewrites them); the note then
    // carries its id so the post-restart provenance can point back.
    note.incident_id = forensics_->RecordIncident(
        source, log_->CurrentLsn(), note.last_clean_audit_lsn, ranges,
        "corruption note written; next recovery runs the "
        "delete-transaction algorithm");
  }
  return WriteCorruptionNote(files_.CorruptNote(), note);
}

Status Database::CacheRecover(const std::vector<CorruptRange>& ranges) {
  CWDB_RETURN_IF_ERROR(CacheRecoverRegions(files_, image_.get(), txns_.get(),
                                           log_.get(), protection_.get(),
                                           checkpointer_.get(), ranges));
  // The cache image is repaired; the noted corruption (if any) is resolved.
  return RemoveFileIfExists(files_.CorruptNote());
}

Status Database::ReportCorruption(const std::vector<CorruptRange>& ranges) {
  return NoteCorruption(ranges);
}

bool Database::TryRepairRanges(const std::vector<CorruptRange>& ranges,
                               IncidentSource source,
                               std::vector<CorruptRange>* unrepaired) {
  for (const CorruptRange& r : ranges) {
    metrics_.NoteDetection(r.off, r.len);
    metrics_.trace().Record(TraceEventType::kCorruptionDetected,
                            log_->CurrentLsn(), r.off, r.len,
                            shard_map_.ShardOf(r.off));
  }
  ProtectionManager::RepairEpisode episode;
  bool ok = protection_->RepairWithForensics(
      source, log_->CurrentLsn(), LastCleanAuditLsn(), ranges,
      "corruption detected; attempting in-place parity repair", &episode);
  if (unrepaired != nullptr) *unrepaired = episode.outcome.unrepaired;
  return ok;
}

Status Database::RecoverFromCorruption(const std::vector<CorruptRange>& ranges,
                                       std::optional<Lsn> not_before_lsn) {
  CorruptionNote note;
  note.last_clean_audit_lsn =
      not_before_lsn.has_value() ? *not_before_lsn : LastCleanAuditLsn();
  note.ranges = ranges;
  if (forensics_ != nullptr) {
    note.incident_id = forensics_->RecordIncident(
        IncidentSource::kOperator, log_->CurrentLsn(),
        note.last_clean_audit_lsn, ranges,
        "corruption reported through RecoverFromCorruption");
  }
  CWDB_RETURN_IF_ERROR(WriteCorruptionNote(files_.CorruptNote(), note));
  return CrashAndRecover();
}

Status Database::RecordCleanAudit(Lsn audit_lsn) {
  std::lock_guard<std::mutex> guard(checkpoint_mu_);
  return WriteAuditMeta(files_.AuditMeta(), audit_lsn);
}

Status Database::RecoverToPriorState(Lsn point) {
  log_->DiscardTail();
  txns_->ClearForCrash();
  RecoveryOptions ropts;
  ropts.redo_limit = point;
  RecoveryDriver driver(files_, image_.get(), txns_.get(), log_.get(),
                        protection_.get(), checkpointer_.get());
  CWDB_ASSIGN_OR_RETURN(last_report_, driver.Run(ropts));
  return protection_->ReprotectAll();
}

Result<Lsn> Database::Archive(const std::string& archive_dir) {
  std::lock_guard<std::mutex> guard(checkpoint_mu_);
  CWDB_RETURN_IF_ERROR(CheckpointLocked());
  CWDB_RETURN_IF_ERROR(log_->Flush());
  CWDB_ASSIGN_OR_RETURN(CheckpointMeta meta,
                        CreateArchive(files_, archive_dir));
  return meta.ck_end;
}

Status Database::CrashAndRecover() {
  // Everything volatile dies with the process: the un-flushed log tail,
  // the ATT with its local logs, and the lock tables.
  log_->DiscardTail();
  txns_->ClearForCrash();
  CWDB_RETURN_IF_ERROR(RunRecovery());
  CWDB_RETURN_IF_ERROR(protection_->ReprotectAll());
  return Status::OK();
}

DatabaseStats Database::GetStats() const {
  // One registry snapshot so all the counters are read at the same moment
  // (the accessors each re-read their own counter).
  MetricsSnapshot snap = metrics_.Capture();
  DatabaseStats stats;
  stats.commits = snap.CounterValue("txn.commits");
  stats.aborts = snap.CounterValue("txn.aborts");
  stats.checkpoints = snap.CounterValue("ckpt.checkpoints");
  stats.log_bytes_appended = snap.CounterValue("wal.bytes_appended");
  stats.log_flushes = snap.CounterValue("wal.flushes");
  stats.protection.updates = snap.CounterValue("protect.updates");
  stats.protection.codeword_folds = snap.CounterValue("protect.codeword_folds");
  stats.protection.prechecks = snap.CounterValue("protect.prechecks");
  stats.protection.regions_audited =
      snap.CounterValue("protect.regions_audited");
  stats.protection.audit_failures = snap.CounterValue("protect.audit_failures");
  stats.protection.mprotect_calls = snap.CounterValue("protect.mprotect_calls");
  stats.protection.pages_unprotected =
      snap.CounterValue("protect.pages_unprotected");
  stats.protection_space_overhead_bytes = protection_->SpaceOverheadBytes();
  return stats;
}

Result<std::string> Database::DumpMetrics() {
  std::lock_guard<std::mutex> guard(flush_mu_);
  MetricsSnapshot snap = CaptureMetrics();
  if (flight_recorder_ != nullptr) flight_recorder_->WriteMetricsSample(snap);
  std::string json = snap.ToJson();
  CWDB_RETURN_IF_ERROR(WriteFileAtomic(files_.MetricsFile(), json));
  if (metrics_.tracer()->enabled()) {
    // The span dump rides along so post-mortem `cwdb_ctl trace-export` /
    // `spans` work on a closed database directory.
    CWDB_RETURN_IF_ERROR(WriteFileAtomic(
        files_.SpansFile(), SpansToJson(CaptureSpans(&metrics_))));
  }
  return json;
}

}  // namespace cwdb
