#include "recovery/recovery.h"

#include <algorithm>
#include <cstring>

#include "ckpt/att_codec.h"
#include "common/file_util.h"

namespace cwdb {

namespace {

bool RangesOverlap(const CorruptRange& a, const CorruptRange& b) {
  return a.off < b.off + b.len && b.off < a.off + a.len;
}

}  // namespace

RecoveryDriver::RecoveryDriver(const DbFiles& files, DbImage* image,
                               TxnManager* txns, SystemLog* log,
                               ProtectionManager* protection,
                               Checkpointer* checkpointer)
    : files_(files),
      image_(image),
      txns_(txns),
      log_(log),
      protection_(protection),
      checkpointer_(checkpointer) {}

void RecoveryDriver::ApplyRedo(Transaction* txn, const LogRecord& rec) {
  CWDB_CHECK(image_->InBounds(rec.off, rec.len)) << "redo out of bounds";
  UndoRecord u;
  u.kind = UndoRecord::Kind::kPhysical;
  u.off = rec.off;
  u.before.assign(reinterpret_cast<const char*>(image_->At(rec.off)),
                  rec.len);
  txn->mutable_undo_log().push_back(std::move(u));
  std::memcpy(image_->At(rec.off), rec.after.data(), rec.len);
  image_->MarkDirty(rec.off, rec.len);
}

bool RecoveryDriver::ReadsCorruptData(const LogRecord& rec) const {
  // Data whose recovery-time value is known to differ from what the
  // original execution saw is tracked in the CorruptDataTable; reading it
  // makes the reader corrupt. Under Codeword Read Logging the table holds
  // only the *rolled-back prefixes* of deleted transactions (a logged
  // checksum cannot anticipate an undo that happens after the scan), while
  // suppressed writes are judged by comparing the logged checksum against
  // the image being recovered — view-consistently: a reader whose bytes
  // match anyway is spared (§4.3 Extension).
  if (corrupt_data_.Overlaps(rec.off, rec.len)) return true;
  if (options_.use_logged_checksums && rec.has_cksum) {
    return ProtectionManager::ChecksumBytes(*image_, rec.off, rec.len) !=
           rec.cksum;
  }
  return false;
}

RecoveryDriver::ConflictSet RecoveryDriver::TargetsOf(
    const LogRecord& rec) const {
  ConflictSet cs;
  if (rec.table >= kMaxTables) {
    // Raw-region operation: its physical range is in the record.
    if (rec.len > 0) cs.ranges.push_back(CorruptRange{rec.off, rec.len});
    return cs;
  }
  cs.targets.insert({rec.table, rec.slot});
  const TableMetaRaw* m = image_->table_meta(rec.table);
  switch (rec.opcode) {
    case OpCode::kInsert:
    case OpCode::kDelete:
      if (m->in_use && rec.slot != kInvalidSlot) {
        cs.ranges.push_back(CorruptRange{
            m->data_off + static_cast<uint64_t>(rec.slot) * m->record_size,
            m->record_size});
        cs.ranges.push_back(
            CorruptRange{BitmapWordOff(m->bitmap_off, rec.slot), 8});
      }
      break;
    case OpCode::kUpdate:
      if (m->in_use && rec.slot != kInvalidSlot) {
        cs.ranges.push_back(CorruptRange{
            m->data_off + static_cast<uint64_t>(rec.slot) * m->record_size,
            m->record_size});
      }
      break;
    case OpCode::kCreateTable:
      cs.ranges.push_back(
          CorruptRange{TableMetaOff(rec.table), kTableMetaBytes});
      cs.ranges.push_back(
          CorruptRange{kHeaderOff + offsetof(DbHeaderRaw, alloc_cursor), 8});
      break;
  }
  return cs;
}

RecoveryDriver::ConflictSet RecoveryDriver::TargetsOfUndoLog(
    const Transaction& txn) const {
  ConflictSet cs;
  for (const UndoRecord& u : txn.undo_log()) {
    if (u.kind == UndoRecord::Kind::kPhysical) {
      cs.ranges.push_back(
          CorruptRange{u.off, static_cast<uint64_t>(u.before.size())});
      continue;
    }
    const LogicalUndo& lu = u.undo;
    switch (lu.code) {
      case UndoCode::kNone:
        break;
      case UndoCode::kDeleteSlot:
      case UndoCode::kReinsertSlot:
      case UndoCode::kWriteField: {
        cs.targets.insert({lu.table, lu.slot});
        const TableMetaRaw* m = image_->table_meta(lu.table);
        if (m->in_use && lu.slot != kInvalidSlot) {
          cs.ranges.push_back(CorruptRange{
              m->data_off + static_cast<uint64_t>(lu.slot) * m->record_size,
              m->record_size});
          if (lu.code != UndoCode::kWriteField) {
            cs.ranges.push_back(
                CorruptRange{BitmapWordOff(m->bitmap_off, lu.slot), 8});
          }
        }
        break;
      }
      case UndoCode::kWriteRaw:
        cs.ranges.push_back(CorruptRange{
            lu.raw_off, static_cast<uint64_t>(lu.payload.size())});
        break;
      case UndoCode::kDropTable:
        cs.targets.insert({lu.table, kInvalidSlot});
        cs.ranges.push_back(
            CorruptRange{TableMetaOff(lu.table), kTableMetaBytes});
        break;
    }
  }
  return cs;
}

bool RecoveryDriver::Conflicts(const ConflictSet& a, const ConflictSet& b) {
  CorruptRange witness;
  return ConflictWitness(a, b, &witness);
}

bool RecoveryDriver::ConflictWitness(const ConflictSet& a,
                                     const ConflictSet& b,
                                     CorruptRange* witness) {
  // Prefer a byte-range witness: it attributes the conflict to concrete
  // image bytes the provenance graph can show.
  for (const CorruptRange& ra : a.ranges) {
    for (const CorruptRange& rb : b.ranges) {
      if (RangesOverlap(ra, rb)) {
        uint64_t lo = std::max(ra.off, rb.off);
        uint64_t hi = std::min(ra.off + ra.len, rb.off + rb.len);
        *witness = CorruptRange{lo, hi - lo};
        return true;
      }
    }
  }
  for (const auto& t : a.targets) {
    if (b.targets.count(t)) {
      *witness = CorruptRange{0, 0};
      return true;
    }
  }
  return false;
}

Result<RecoveryReport> RecoveryDriver::Run(const RecoveryOptions& options) {
  options_ = options;
  corrupt_txns_.clear();
  corrupt_data_ = IntervalSet();
  suppressed_bytes_ = 0;
  corrupt_conflicts_.clear();
  RecoveryReport report;

  // Phase transitions go to the flight recorder; counts and the total
  // duration land in recovery.* instruments once the run finishes.
  MetricsRegistry* metrics = txns_->metrics();
  EventTrace& trace = metrics->trace();
  const uint64_t t0 = NowNs();
  // Every recovery run is traced (forced): each phase transition closes the
  // previous phase's span under a kRecovery root recorded at the end.
  Tracer* tracer = metrics->tracer();
  uint64_t rec_root = 0;
  SpanContext rec_ctx = tracer->StartForcedTrace(&rec_root);
  uint64_t phase_start_ns = t0;
  RecoveryPhase prev_phase = RecoveryPhase::kLoadCheckpoint;
  bool phase_open = false;
  auto enter_phase = [&](RecoveryPhase p, Lsn at) {
    trace.Record(TraceEventType::kRecoveryPhase, at,
                 static_cast<uint64_t>(p), 0);
    if (rec_ctx.sampled()) {
      const uint64_t now = NowNs();
      if (phase_open) {
        tracer->Record(rec_ctx, SpanKind::kRecoveryPhase, phase_start_ns,
                       now, static_cast<uint64_t>(prev_phase), at);
      }
      phase_start_ns = now;
      prev_phase = p;
      phase_open = p != RecoveryPhase::kDone;
    }
  };

  txns_->set_recovery_mode(true);
  CWDB_RETURN_IF_ERROR(protection_->ExposeAll());

  enter_phase(RecoveryPhase::kLoadCheckpoint, 0);
  CWDB_ASSIGN_OR_RETURN(CheckpointMeta meta, checkpointer_->LoadActive());
  if (options.redo_limit != kInvalidLsn && meta.ck_end > options.redo_limit) {
    return Status::InvalidArgument(
        "prior-state point predates the active checkpoint; restore an "
        "archived checkpoint first");
  }
  CWDB_RETURN_IF_ERROR(DecodeAttInto(meta.att_blob, txns_));
  report.redo_start = meta.ck_end;

  // The failing audit's regions enter the CorruptDataTable once the scan
  // passes Audit_LSN — the point where the last clean audit began; before
  // it the data was certified clean (§4.3). With logged checksums the
  // table is not consulted (the checksum against the recovered image *is*
  // the corruption test), matching "the CorruptDataTable can be dispensed
  // with".
  const Lsn audit_lsn = options.note.last_clean_audit_lsn;
  if (options.corruption_recovery) {
    report.provenance.incident_id = options.note.incident_id;
    report.provenance.last_clean_audit_lsn = audit_lsn;
    report.provenance.roots = options.note.ranges;
  }

  // Provenance taints mirror every CorruptDataTable insertion, tagged with
  // the transaction whose suppressed/rolled-back bytes produced it (0 =
  // the incident's own ranges), so each implication edge can name its
  // carrier. Shadow taints cover checksum-mode suppressed writes, which
  // never enter the table but still explain later checksum mismatches.
  struct Taint {
    CorruptRange range;
    TxnId src;
  };
  std::vector<Taint> taints;
  std::vector<Taint> shadow_taints;
  auto find_taint = [](const std::vector<Taint>& v, DbPtr off,
                       uint64_t len) -> const Taint* {
    for (const Taint& t : v) {
      if (RangesOverlap(t.range, CorruptRange{off, len})) return &t;
    }
    return nullptr;
  };

  bool note_ranges_added = false;
  auto add_note_ranges = [&]() {
    for (const CorruptRange& r : options_.note.ranges) {
      corrupt_data_.Insert(r.off, r.len);
      taints.push_back(Taint{r, 0});
    }
    note_ranges_added = true;
  };
  if (options.corruption_recovery && audit_lsn <= meta.ck_end) {
    add_note_ranges();
  }

  auto mark_corrupt = [&](TxnId id, ProvenanceEdge edge) {
    Transaction* t = txns_->GetOrCreateRecovered(id);
    corrupt_txns_.insert(id);
    if (report.provenance.EdgeFor(id) == nullptr) {
      edge.txn = id;
      report.provenance.edges.push_back(edge);
    }
    // Freeze the conflict set now: nothing is appended to a corrupt
    // transaction's undo log after this point.
    ConflictSet cs = TargetsOfUndoLog(*t);
    // A deleted transaction is deleted *entirely*: its pre-corruption
    // writes will be rolled back in the undo phase, so their values in the
    // delete history differ from what later readers saw in the original
    // history. Mark that footprint corrupt so such readers are deleted
    // too (this is what makes the paper's claim "any data that could
    // possibly have been read with different values was previously placed
    // in CorruptDataTable" hold for rolled-back prefixes). Under strict
    // two-phase record locking no one read these bytes *before* this
    // point, so forward-only marking suffices.
    for (const CorruptRange& r : cs.ranges) {
      corrupt_data_.Insert(r.off, r.len);
      taints.push_back(Taint{r, id});
    }
    corrupt_conflicts_[id] = std::move(cs);
  };

  // Builds the provenance edge for a read/write that tripped
  // ReadsCorruptData: a taint overlap names the byte range and its carrier;
  // otherwise the trigger was a logged-checksum mismatch against the
  // recovered image (§4.3 Extension), whose carrier — if any — is a
  // suppressed write recorded in the shadow taints.
  auto implication_edge = [&](const LogRecord& rec, Lsn at,
                              ProvenanceReason range_reason) {
    ProvenanceEdge e;
    e.txn = rec.txn;
    e.at_lsn = at;
    e.via = CorruptRange{rec.off, rec.len};
    if (const Taint* t = find_taint(taints, rec.off, rec.len)) {
      uint64_t lo = std::max<uint64_t>(rec.off, t->range.off);
      uint64_t hi = std::min<uint64_t>(rec.off + rec.len,
                                       t->range.off + t->range.len);
      e.reason = range_reason;
      e.via = CorruptRange{lo, hi - lo};
      e.from_txn = t->src;
    } else {
      e.reason = ProvenanceReason::kChecksumMismatch;
      const Taint* s = find_taint(shadow_taints, rec.off, rec.len);
      e.from_txn = s != nullptr ? s->src : 0;
    }
    return e;
  };

  TxnId max_txn = 0;
  uint32_t max_op = 0;
  std::map<TxnId, size_t> open_op_marks;

  enter_phase(RecoveryPhase::kRedo, meta.ck_end);
  CWDB_ASSIGN_OR_RETURN(
      std::unique_ptr<LogReader> reader,
      LogReader::Open(files_.SystemLog(), meta.ck_end, options.redo_limit));
  LogRecord rec;
  Lsn lsn;
  while (reader->Next(&rec, &lsn)) {
    if (options.corruption_recovery && !note_ranges_added &&
        lsn >= audit_lsn) {
      add_note_ranges();
    }
    max_txn = std::max(max_txn, rec.txn);
    bool is_corrupt = corrupt_txns_.count(rec.txn) > 0;
    switch (rec.type) {
      case LogRecordType::kBeginTxn:
        txns_->GetOrCreateRecovered(rec.txn);
        break;

      case LogRecordType::kPhysRedo: {
        Transaction* t = txns_->GetOrCreateRecovered(rec.txn);
        if (options.corruption_recovery) {
          if (!is_corrupt && ReadsCorruptData(rec)) {
            mark_corrupt(rec.txn,
                         implication_edge(
                             rec, lsn, ProvenanceReason::kWroteCorruptRange));
            is_corrupt = true;
          }
          if (is_corrupt) {
            // The data this transaction would have written is corrupt; the
            // write itself is suppressed (§4.3, redo phase case 2). With
            // logged checksums the suppressed bytes are *not* put in the
            // table — later readers are judged by checksum against the
            // recovered image, which spares readers whose bytes match
            // anyway (view-consistency); the plain scheme must be
            // conservative and range-based.
            if (!options_.use_logged_checksums) {
              corrupt_data_.Insert(rec.off, rec.len);
              taints.push_back(
                  Taint{CorruptRange{rec.off, rec.len}, rec.txn});
            } else {
              shadow_taints.push_back(
                  Taint{CorruptRange{rec.off, rec.len}, rec.txn});
            }
            suppressed_bytes_ += rec.len;
            ++report.redo_records_skipped;
            break;
          }
        }
        ApplyRedo(t, rec);
        ++report.redo_records_applied;
        break;
      }

      case LogRecordType::kReadLog:
        if (options.corruption_recovery && !is_corrupt &&
            ReadsCorruptData(rec)) {
          mark_corrupt(rec.txn,
                       implication_edge(
                           rec, lsn, ProvenanceReason::kReadCorruptRange));
        }
        break;

      case LogRecordType::kBeginOp: {
        max_op = std::max(max_op, rec.op_id);
        if (is_corrupt) break;
        if (options.corruption_recovery && !corrupt_conflicts_.empty()) {
          ConflictSet mine = TargetsOf(rec);
          for (const auto& [id, cs] : corrupt_conflicts_) {
            CorruptRange witness{0, 0};
            if (ConflictWitness(mine, cs, &witness)) {
              // Beginning this operation would prevent rolling back the
              // corrupt transaction; delete this transaction too (§4.3).
              ProvenanceEdge e;
              e.txn = rec.txn;
              e.reason = ProvenanceReason::kConflictWithUndo;
              e.at_lsn = lsn;
              e.via = witness;
              e.from_txn = id;
              mark_corrupt(rec.txn, e);
              is_corrupt = true;
              break;
            }
          }
          if (is_corrupt) break;
        }
        Transaction* t = txns_->GetOrCreateRecovered(rec.txn);
        open_op_marks[rec.txn] = t->undo_log().size();
        break;
      }

      case LogRecordType::kCommitOp: {
        if (is_corrupt) break;  // Logical records of corrupt txns ignored.
        Transaction* t = txns_->GetOrCreateRecovered(rec.txn);
        auto it = open_op_marks.find(rec.txn);
        CWDB_CHECK(it != open_op_marks.end())
            << "operation commit without begin in redo scan";
        auto& undo = t->mutable_undo_log();
        undo.resize(it->second);
        UndoRecord u;
        u.kind = UndoRecord::Kind::kLogical;
        u.op_id = rec.op_id;
        u.level = rec.level;
        u.undo = rec.undo;
        undo.push_back(std::move(u));
        open_op_marks.erase(it);
        break;
      }

      case LogRecordType::kCommitTxn:
      case LogRecordType::kAbortTxn:
        if (!is_corrupt) {
          txns_->DropRecovered(rec.txn);
          open_op_marks.erase(rec.txn);
        }
        break;

      case LogRecordType::kAuditBegin:
        break;
    }
  }
  CWDB_RETURN_IF_ERROR(reader->status());
  report.redo_end = reader->position();

  // Prior-state model: every transaction that committed at or beyond the
  // limit is removed from history — report it so the user can compensate
  // (§4.1; the paper notes this covers "all transactions which have
  // occurred after the corruption, rather than just the ones determined
  // to be possibly affected").
  if (options.redo_limit != kInvalidLsn) {
    CWDB_ASSIGN_OR_RETURN(
        std::unique_ptr<LogReader> discarded,
        LogReader::Open(files_.SystemLog(), options.redo_limit,
                        kInvalidLsn));
    while (discarded->Next(&rec, &lsn)) {
      max_txn = std::max(max_txn, rec.txn);
      if (rec.type == LogRecordType::kCommitTxn) {
        report.deleted_txns.push_back(rec.txn);
        if (report.provenance.EdgeFor(rec.txn) == nullptr) {
          ProvenanceEdge e;
          e.txn = rec.txn;
          e.reason = ProvenanceReason::kCommittedAfterLimit;
          e.at_lsn = lsn;
          report.provenance.edges.push_back(e);
        }
      }
    }
    CWDB_RETURN_IF_ERROR(discarded->status());
  }
  txns_->BumpIds(max_txn, max_op);

  // --- Undo phase: roll back incomplete transactions level by level. The
  // corrupt transactions' (possibly empty) pre-corruption prefixes are
  // rolled back exactly like ordinary incomplete transactions. ---
  enter_phase(RecoveryPhase::kUndo, report.redo_end);
  std::vector<TxnId> incomplete;
  for (const auto& [id, txn] : txns_->att()) {
    incomplete.push_back(id);
    if (corrupt_txns_.count(id)) {
      report.deleted_txns.push_back(id);
    } else {
      report.rolled_back_txns.push_back(id);
    }
  }

  // Level 0: physical undo of open (uncommitted) operations.
  for (TxnId id : incomplete) {
    Transaction* t = txns_->GetOrCreateRecovered(id);
    t->in_rollback_ = true;
    auto& undo = t->mutable_undo_log();
    while (!undo.empty() &&
           undo.back().kind == UndoRecord::Kind::kPhysical) {
      UndoRecord u = std::move(undo.back());
      undo.pop_back();
      CWDB_CHECK(!u.codeword_applied);
      CWDB_ASSIGN_OR_RETURN(
          uint8_t* p,
          t->BeginUpdate(u.off, static_cast<uint32_t>(u.before.size())));
      std::memcpy(p, u.before.data(), u.before.size());
      CWDB_RETURN_IF_ERROR(t->EndUpdate());
    }
  }
  // Level 1: logical undo, newest-first within each transaction.
  for (TxnId id : incomplete) {
    Transaction* t = txns_->GetOrCreateRecovered(id);
    auto& undo = t->mutable_undo_log();
    while (!undo.empty()) {
      UndoRecord u = std::move(undo.back());
      undo.pop_back();
      CWDB_CHECK(u.kind == UndoRecord::Kind::kLogical)
          << "physical undo below a logical entry";
      CWDB_RETURN_IF_ERROR(txns_->ExecuteLogicalUndo(t, u.undo));
    }
  }
  for (TxnId id : incomplete) {
    CWDB_RETURN_IF_ERROR(
        txns_->FinishRecoveredRollback(txns_->GetOrCreateRecovered(id)));
  }

  report.corrupt_data_bytes = corrupt_data_.TotalBytes() + suppressed_bytes_;

  // The recovered image is rebuilt from trusted sources (certified
  // checkpoint + redo log), so re-deriving protection state from it is
  // sound.
  CWDB_RETURN_IF_ERROR(protection_->ResetFromImage());
  txns_->set_recovery_mode(false);

  // --- Final checkpoint so a future restart cannot rediscover the same
  // corruption and start deleting post-recovery transactions (§4.3). ---
  enter_phase(RecoveryPhase::kFinalCheckpoint, log_->CurrentLsn());
  std::vector<CorruptRange> corrupt_after;
  Status ckpt_status = checkpointer_->Checkpoint(
      protection_->options().UsesCodewords(), &corrupt_after);
  CWDB_RETURN_IF_ERROR(ckpt_status);

  CWDB_RETURN_IF_ERROR(RemoveFileIfExists(files_.CorruptNote()));
  CWDB_RETURN_IF_ERROR(
      WriteAuditMeta(files_.AuditMeta(), log_->CurrentLsn()));

  std::sort(report.deleted_txns.begin(), report.deleted_txns.end());
  std::sort(report.rolled_back_txns.begin(), report.rolled_back_txns.end());

  // Persist the implication chain for `cwdb_ctl explain-recovery`. Best
  // effort: the graph is diagnostic, never consulted by recovery itself.
  if (options.corruption_recovery || options.redo_limit != kInvalidLsn) {
    Status prov_status = WriteFileAtomic(files_.ProvenanceFile(),
                                         report.provenance.ToJson(image_));
    if (!prov_status.ok()) {
      metrics->counter("recovery.provenance_write_failures")->Add();
    }
  }

  enter_phase(RecoveryPhase::kDone, log_->CurrentLsn());
  for (TxnId id : report.deleted_txns) {
    trace.Record(TraceEventType::kTxnDeleted, report.redo_end, id, 0);
  }
  metrics->counter("recovery.runs")->Add();
  metrics->counter("recovery.redo_records_applied")
      ->Add(report.redo_records_applied);
  metrics->counter("recovery.redo_records_skipped")
      ->Add(report.redo_records_skipped);
  metrics->counter("recovery.deleted_txns")->Add(report.deleted_txns.size());
  metrics->counter("recovery.rolled_back_txns")
      ->Add(report.rolled_back_txns.size());
  metrics->histogram("recovery.duration_ns")->Record(NowNs() - t0);
  if (rec_ctx.sampled()) {
    tracer->RecordWithId(rec_ctx.Under(0), rec_root, SpanKind::kRecovery, t0,
                         NowNs(), report.deleted_txns.size(),
                         report.rolled_back_txns.size());
  }
  return report;
}

Status CacheRecoverRegions(const DbFiles& files, DbImage* image,
                           TxnManager* txns, SystemLog* log,
                           ProtectionManager* protection,
                           Checkpointer* checkpointer,
                           const std::vector<CorruptRange>& ranges) {
  if (!txns->att().empty()) {
    return Status::Busy(
        "cache recovery requires no active transactions; abort them first");
  }
  if (ranges.empty()) return Status::OK();
  CWDB_RETURN_IF_ERROR(log->Flush());

  CWDB_ASSIGN_OR_RETURN(CheckpointMeta meta, checkpointer->ReadActiveMeta());

  // Restore the corrupt regions from the certified-clean checkpoint image.
  for (const CorruptRange& r : ranges) {
    if (!image->InBounds(r.off, r.len)) {
      return Status::InvalidArgument("corrupt range out of bounds");
    }
    CWDB_RETURN_IF_ERROR(
        checkpointer->ReadImageBytes(r.off, r.len, image->At(r.off)));
  }

  // Replay the intersection of every later physical redo with the corrupt
  // ranges (only the overlapping bytes: bytes outside the ranges are
  // already current in the live image).
  CWDB_ASSIGN_OR_RETURN(
      std::unique_ptr<LogReader> reader,
      LogReader::Open(files.SystemLog(), meta.ck_end, kInvalidLsn));
  LogRecord rec;
  while (reader->Next(&rec, nullptr)) {
    if (rec.type != LogRecordType::kPhysRedo) continue;
    for (const CorruptRange& r : ranges) {
      uint64_t lo = std::max<uint64_t>(rec.off, r.off);
      uint64_t hi = std::min<uint64_t>(rec.off + rec.len, r.off + r.len);
      if (lo >= hi) continue;
      std::memcpy(image->At(lo), rec.after.data() + (lo - rec.off), hi - lo);
    }
  }
  CWDB_RETURN_IF_ERROR(reader->status());
  for (const CorruptRange& r : ranges) {
    image->MarkDirty(r.off, r.len);
  }

  // The repaired bytes are reconstructed from trusted sources; recompute
  // only the covering codewords. Regions outside the repaired ranges keep
  // their stored codewords, so corruption elsewhere stays detectable.
  for (const CorruptRange& r : ranges) {
    CWDB_RETURN_IF_ERROR(protection->RecomputeRegions(r.off, r.len));
  }
  return Status::OK();
}

}  // namespace cwdb
