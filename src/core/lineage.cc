#include "core/lineage.h"

#include <map>

#include "ckpt/checkpoint.h"

namespace cwdb {

Result<std::unique_ptr<LogReader>> LineageTracer::OpenReader(Lsn since) {
  CWDB_RETURN_IF_ERROR(db_->log()->Flush());
  DbFiles files(db_->options().path);
  return LogReader::Open(files.SystemLog(), since, kInvalidLsn);
}

Result<std::vector<LineageTracer::Access>> LineageTracer::Readers(
    DbPtr off, uint64_t len, Lsn since) {
  if (!db_->options().protection.LogsReads()) {
    return Status::InvalidArgument(
        "reader lineage requires a read-logging scheme");
  }
  CWDB_ASSIGN_OR_RETURN(std::unique_ptr<LogReader> reader, OpenReader(since));
  std::vector<Access> out;
  LogRecord rec;
  Lsn lsn;
  while (reader->Next(&rec, &lsn)) {
    if (rec.type != LogRecordType::kReadLog) continue;
    if (rec.off < off + len && off < rec.off + rec.len) {
      out.push_back(Access{rec.txn, lsn, rec.off, rec.len, false});
    }
  }
  CWDB_RETURN_IF_ERROR(reader->status());
  return out;
}

Result<std::vector<LineageTracer::Access>> LineageTracer::Writers(
    DbPtr off, uint64_t len, Lsn since) {
  CWDB_ASSIGN_OR_RETURN(std::unique_ptr<LogReader> reader, OpenReader(since));
  std::vector<Access> out;
  LogRecord rec;
  Lsn lsn;
  while (reader->Next(&rec, &lsn)) {
    if (rec.type != LogRecordType::kPhysRedo) continue;
    if (rec.off < off + len && off < rec.off + rec.len) {
      out.push_back(Access{rec.txn, lsn, rec.off, rec.len, true});
    }
  }
  CWDB_RETURN_IF_ERROR(reader->status());
  return out;
}

Result<LineageTracer::Taint> LineageTracer::TaintClosure(
    const std::vector<CorruptRange>& seeds, Lsn since) {
  if (!db_->options().protection.LogsReads()) {
    return Status::InvalidArgument(
        "taint closure requires a read-logging scheme");
  }
  CWDB_ASSIGN_OR_RETURN(std::unique_ptr<LogReader> reader, OpenReader(since));

  Taint taint;
  for (const CorruptRange& r : seeds) {
    taint.tainted_data.Insert(r.off, r.len);
  }

  // Per in-flight transaction: whether it has read tainted bytes, and the
  // writes it performed after that moment. The writes only become globally
  // tainted when the transaction commits (a rolled-back transaction's
  // writes were never visible under strict 2PL).
  struct Pending {
    bool tainted = false;
    std::vector<CorruptRange> writes_after_taint;
  };
  std::map<TxnId, Pending> pending;

  LogRecord rec;
  Lsn lsn;
  while (reader->Next(&rec, &lsn)) {
    ++taint.log_records_scanned;
    switch (rec.type) {
      case LogRecordType::kReadLog: {
        if (taint.tainted_data.Overlaps(rec.off, rec.len)) {
          pending[rec.txn].tainted = true;
        }
        break;
      }
      case LogRecordType::kPhysRedo: {
        Pending& p = pending[rec.txn];
        // A write is also a read of the bytes it replaces when the write
        // value was derived from them; the delete-transaction algorithm
        // treats overlapping writes as reads (§4.3) and so do we.
        if (!p.tainted && taint.tainted_data.Overlaps(rec.off, rec.len)) {
          p.tainted = true;
        }
        if (p.tainted) {
          p.writes_after_taint.push_back(CorruptRange{rec.off, rec.len});
        }
        break;
      }
      case LogRecordType::kCommitTxn: {
        auto it = pending.find(rec.txn);
        if (it != pending.end()) {
          if (it->second.tainted) {
            taint.affected_txns.insert(rec.txn);
            for (const CorruptRange& w : it->second.writes_after_taint) {
              taint.tainted_data.Insert(w.off, w.len);
            }
          }
          pending.erase(it);
        }
        break;
      }
      case LogRecordType::kAbortTxn: {
        pending.erase(rec.txn);
        break;
      }
      default:
        break;
    }
  }
  CWDB_RETURN_IF_ERROR(reader->status());
  // Transactions still in flight at the end of the log: report them as
  // affected if tainted (their fate is undecided), but do not propagate
  // their writes (not yet visible).
  for (const auto& [id, p] : pending) {
    if (p.tainted) taint.affected_txns.insert(id);
  }
  return taint;
}

CorruptRange LineageTracer::RecordRange(TableId table, uint32_t slot) const {
  const TableMetaRaw* meta = db_->image()->table_meta(table);
  return CorruptRange{db_->image()->RecordOff(table, slot),
                      meta->record_size};
}

}  // namespace cwdb
