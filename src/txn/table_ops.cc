#include "txn/table_ops.h"

#include <bit>
#include <cstddef>
#include <cstring>
#include <thread>

#include "common/logging.h"

namespace cwdb {
namespace table_ops {

namespace {

Status ValidateTable(const DbImage& image, TableId table,
                     const TableMetaRaw** meta) {
  if (table >= kMaxTables) {
    return Status::InvalidArgument("table id out of range");
  }
  const TableMetaRaw* m = image.table_meta(table);
  if (!m->in_use) {
    return Status::NotFound("table not in use");
  }
  *meta = m;
  return Status::OK();
}

/// Lock acquisition that tolerates being on a rollback path: a rollback
/// must eventually succeed, so the lock manager breaks a cycle through it
/// by aborting another member. Only a cycle of rollbacks alone still
/// answers kDeadlock, which is retried after a yield. In recovery mode
/// locks are skipped entirely.
Status AcquireLock(TxnManager& mgr, Transaction* txn, LockId id,
                   LockMode mode) {
  if (mgr.recovery_mode()) return Status::OK();
  // The lock manager sees only the TxnId; park the transaction's span
  // context in TLS so its blocking path can attach lock-wait spans.
  ScopedSpanContext ambient(txn->trace_ctx());
  while (true) {
    Status s = mgr.locks().Acquire(txn->id(), id, mode, txn->in_rollback());
    if (s.ok() || !s.IsDeadlock() || !txn->in_rollback()) return s;
    std::this_thread::yield();
  }
}

void ReleaseLock(TxnManager& mgr, Transaction* txn, LockId id) {
  if (mgr.recovery_mode()) return;
  mgr.locks().Release(txn->id(), id);
}

/// Sets or clears one allocation-bitmap bit through the prescribed update
/// interface (allocation info is persistent image state and must be logged
/// and codeword-maintained like any other update).
Status WriteBitmapBit(TxnManager& mgr, Transaction* txn,
                      const TableMetaRaw* meta, uint32_t slot, bool set) {
  DbPtr word_off = BitmapWordOff(meta->bitmap_off, slot);
  uint64_t word;
  std::memcpy(&word, mgr.image()->At(word_off), 8);
  if (set) {
    word |= BitmapBitMask(slot);
  } else {
    word &= ~BitmapBitMask(slot);
  }
  return txn->Update(word_off, &word, 8);
}

uint64_t RoundUpToPage(uint64_t n, uint32_t page) {
  return (n + page - 1) & ~(uint64_t{page} - 1);
}

}  // namespace

Result<TableId> CreateTable(TxnManager& mgr, Transaction* txn,
                            const std::string& name, uint32_t record_size,
                            uint64_t capacity) {
  if (name.empty() || name.size() >= kTableNameBytes) {
    return Status::InvalidArgument("bad table name");
  }
  if (record_size == 0 || capacity == 0) {
    return Status::InvalidArgument("record size and capacity must be > 0");
  }
  const DbImage* image = mgr.image();
  LockId dir_lock = LockId::Directory();
  CWDB_RETURN_IF_ERROR(AcquireLock(mgr, txn, dir_lock, LockMode::kExclusive));

  if (image->FindTable(name) != kMaxTables) {
    ReleaseLock(mgr, txn, dir_lock);
    return Status::AlreadyExists("table exists: " + name);
  }
  TableId t = kMaxTables;
  for (TableId i = 0; i < kMaxTables; ++i) {
    if (!image->table_meta(i)->in_use) {
      t = i;
      break;
    }
  }
  if (t == kMaxTables) {
    ReleaseLock(mgr, txn, dir_lock);
    return Status::NoSpace("table directory full");
  }
  const uint32_t page = image->page_size();
  uint64_t bitmap_bytes = RoundUpToPage(BitmapBytes(capacity), page);
  uint64_t data_bytes = RoundUpToPage(capacity * record_size, page);
  uint64_t cursor = image->header()->alloc_cursor;
  if (cursor + bitmap_bytes + data_bytes > image->size()) {
    ReleaseLock(mgr, txn, dir_lock);
    return Status::NoSpace("image full");
  }

  CWDB_RETURN_IF_ERROR(mgr.BeginOp(txn, OpCode::kCreateTable, t,
                                   kInvalidSlot, dir_lock));
  uint64_t new_cursor = cursor + bitmap_bytes + data_bytes;
  CWDB_RETURN_IF_ERROR(txn->Update(
      kHeaderOff + offsetof(DbHeaderRaw, alloc_cursor), &new_cursor, 8));
  TableMetaRaw m{};
  m.in_use = 1;
  m.record_size = record_size;
  m.capacity = capacity;
  m.bitmap_off = cursor;
  m.data_off = cursor + bitmap_bytes;
  std::strncpy(m.name, name.c_str(), kTableNameBytes - 1);
  CWDB_RETURN_IF_ERROR(txn->Update(TableMetaOff(t), &m, sizeof(m)));

  LogicalUndo undo;
  undo.code = UndoCode::kDropTable;
  undo.table = t;
  CWDB_RETURN_IF_ERROR(mgr.CommitOp(txn, undo));
  return t;
}

Result<RecordId> Insert(TxnManager& mgr, Transaction* txn, TableId table,
                        Slice record) {
  const TableMetaRaw* meta;
  CWDB_RETURN_IF_ERROR(ValidateTable(*mgr.image(), table, &meta));
  if (record.size() != meta->record_size) {
    return Status::InvalidArgument("record size mismatch");
  }
  LockId table_lock = LockId::Table(table);
  CWDB_RETURN_IF_ERROR(
      AcquireLock(mgr, txn, table_lock, LockMode::kExclusive));
  uint32_t slot =
      mgr.image()->FindFreeSlot(table, mgr.image()->alloc_hint(table));
  if (slot == kInvalidSlot) {
    ReleaseLock(mgr, txn, table_lock);
    return Status::NoSpace("table full");
  }
  Status s = AcquireLock(mgr, txn, LockId::Record(table, slot),
                         LockMode::kExclusive);
  if (!s.ok()) {
    ReleaseLock(mgr, txn, table_lock);
    return s;
  }

  CWDB_RETURN_IF_ERROR(
      mgr.BeginOp(txn, OpCode::kInsert, table, slot, table_lock));
  CWDB_RETURN_IF_ERROR(WriteBitmapBit(mgr, txn, meta, slot, true));
  CWDB_RETURN_IF_ERROR(txn->Update(mgr.image()->RecordOff(table, slot),
                                   record.data(),
                                   static_cast<uint32_t>(record.size())));
  mgr.image()->set_alloc_hint(table, slot + 1);

  LogicalUndo undo;
  undo.code = UndoCode::kDeleteSlot;
  undo.table = table;
  undo.slot = slot;
  CWDB_RETURN_IF_ERROR(mgr.CommitOp(txn, undo));
  return RecordId{table, slot};
}

Status Delete(TxnManager& mgr, Transaction* txn, TableId table,
              uint32_t slot) {
  const TableMetaRaw* meta;
  CWDB_RETURN_IF_ERROR(ValidateTable(*mgr.image(), table, &meta));
  if (slot >= meta->capacity) {
    return Status::InvalidArgument("slot out of range");
  }
  LockId table_lock = LockId::Table(table);
  CWDB_RETURN_IF_ERROR(
      AcquireLock(mgr, txn, table_lock, LockMode::kExclusive));
  Status s = AcquireLock(mgr, txn, LockId::Record(table, slot),
                         LockMode::kExclusive);
  if (!s.ok()) {
    ReleaseLock(mgr, txn, table_lock);
    return s;
  }
  if (!mgr.image()->SlotAllocated(table, slot)) {
    ReleaseLock(mgr, txn, table_lock);
    return Status::NotFound("record not allocated");
  }
  std::string old(
      reinterpret_cast<const char*>(
          mgr.image()->At(mgr.image()->RecordOff(table, slot))),
      meta->record_size);

  CWDB_RETURN_IF_ERROR(
      mgr.BeginOp(txn, OpCode::kDelete, table, slot, table_lock));
  CWDB_RETURN_IF_ERROR(WriteBitmapBit(mgr, txn, meta, slot, false));

  LogicalUndo undo;
  undo.code = UndoCode::kReinsertSlot;
  undo.table = table;
  undo.slot = slot;
  undo.payload = std::move(old);
  return mgr.CommitOp(txn, undo);
}

Status Update(TxnManager& mgr, Transaction* txn, TableId table, uint32_t slot,
              uint32_t field_off, Slice data) {
  const TableMetaRaw* meta;
  CWDB_RETURN_IF_ERROR(ValidateTable(*mgr.image(), table, &meta));
  if (slot >= meta->capacity ||
      field_off + data.size() > meta->record_size) {
    return Status::InvalidArgument("field range out of record bounds");
  }
  CWDB_RETURN_IF_ERROR(AcquireLock(mgr, txn, LockId::Record(table, slot),
                                   LockMode::kExclusive));
  // Stable under our record lock: deallocation requires the record lock.
  if (!mgr.image()->SlotAllocated(table, slot)) {
    return Status::NotFound("record not allocated");
  }
  DbPtr field_ptr = mgr.image()->RecordOff(table, slot) + field_off;
  std::string before(reinterpret_cast<const char*>(mgr.image()->At(field_ptr)),
                     data.size());

  CWDB_RETURN_IF_ERROR(
      mgr.BeginOp(txn, OpCode::kUpdate, table, slot, std::nullopt));
  CWDB_RETURN_IF_ERROR(
      txn->Update(field_ptr, data.data(), static_cast<uint32_t>(data.size())));

  LogicalUndo undo;
  undo.code = UndoCode::kWriteField;
  undo.table = table;
  undo.slot = slot;
  undo.field_off = field_off;
  undo.payload = std::move(before);
  return mgr.CommitOp(txn, undo);
}

Status ReadRecord(TxnManager& mgr, Transaction* txn, TableId table,
                  uint32_t slot, std::string* out) {
  const TableMetaRaw* meta;
  CWDB_RETURN_IF_ERROR(ValidateTable(*mgr.image(), table, &meta));
  if (slot >= meta->capacity) {
    return Status::InvalidArgument("slot out of range");
  }
  CWDB_RETURN_IF_ERROR(AcquireLock(mgr, txn, LockId::Record(table, slot),
                                   LockMode::kShared));
  if (!mgr.image()->SlotAllocated(table, slot)) {
    return Status::NotFound("record not allocated");
  }
  out->resize(meta->record_size);
  return txn->Read(mgr.image()->RecordOff(table, slot), out->data(),
                   meta->record_size);
}

Status ReadField(TxnManager& mgr, Transaction* txn, TableId table,
                 uint32_t slot, uint32_t field_off, uint32_t len, void* out) {
  const TableMetaRaw* meta;
  CWDB_RETURN_IF_ERROR(ValidateTable(*mgr.image(), table, &meta));
  if (slot >= meta->capacity || field_off + len > meta->record_size) {
    return Status::InvalidArgument("field range out of record bounds");
  }
  CWDB_RETURN_IF_ERROR(AcquireLock(mgr, txn, LockId::Record(table, slot),
                                   LockMode::kShared));
  if (!mgr.image()->SlotAllocated(table, slot)) {
    return Status::NotFound("record not allocated");
  }
  return txn->Read(mgr.image()->RecordOff(table, slot) + field_off, out, len);
}

Status RawUpdate(TxnManager& mgr, Transaction* txn, DbPtr off, Slice data) {
  if (data.empty() ||
      !mgr.image()->InBounds(off, data.size())) {
    return Status::InvalidArgument("raw update out of bounds");
  }
  std::string before(reinterpret_cast<const char*>(mgr.image()->At(off)),
                     data.size());
  CWDB_RETURN_IF_ERROR(mgr.BeginOp(txn, OpCode::kUpdate, kMaxTables,
                                   kInvalidSlot, std::nullopt, off,
                                   static_cast<uint32_t>(data.size())));
  CWDB_RETURN_IF_ERROR(
      txn->Update(off, data.data(), static_cast<uint32_t>(data.size())));

  LogicalUndo undo;
  undo.code = UndoCode::kWriteRaw;
  undo.raw_off = off;
  undo.payload = std::move(before);
  return mgr.CommitOp(txn, undo);
}

uint64_t CountRecords(const DbImage& image, TableId table) {
  const TableMetaRaw* m = image.table_meta(table);
  if (!m->in_use) return 0;
  uint64_t count = 0;
  const uint64_t words = (m->capacity + 63) / 64;
  for (uint64_t w = 0; w < words; ++w) {
    uint64_t word;
    std::memcpy(&word, image.At(m->bitmap_off + w * 8), 8);
    count += static_cast<uint64_t>(std::popcount(word));
  }
  return count;
}

Status Scan(TxnManager& mgr, Transaction* txn, TableId table,
            const std::function<Status(uint32_t, Slice)>& fn) {
  const TableMetaRaw* meta;
  CWDB_RETURN_IF_ERROR(ValidateTable(*mgr.image(), table, &meta));
  std::string buf(meta->record_size, '\0');
  for (uint64_t slot = 0; slot < meta->capacity; ++slot) {
    uint32_t s = static_cast<uint32_t>(slot);
    // Cheap unlocked liveness probe first; re-checked under the lock.
    if (!mgr.image()->SlotAllocated(table, s)) continue;
    CWDB_RETURN_IF_ERROR(
        AcquireLock(mgr, txn, LockId::Record(table, s), LockMode::kShared));
    if (!mgr.image()->SlotAllocated(table, s)) continue;  // Deleted racily.
    CWDB_RETURN_IF_ERROR(txn->Read(mgr.image()->RecordOff(table, s),
                                   buf.data(), meta->record_size));
    CWDB_RETURN_IF_ERROR(fn(s, Slice(buf.data(), buf.size())));
  }
  return Status::OK();
}

Status ExecuteLogicalUndo(TxnManager& mgr, Transaction* txn,
                          const LogicalUndo& undo) {
  const DbImage* image = mgr.image();
  switch (undo.code) {
    case UndoCode::kNone:
      return Status::OK();

    case UndoCode::kDeleteSlot: {
      // Undo of insert. Idempotent: slot already free means a prior
      // (crashed) execution completed. The probe must run under the table
      // lock — concurrent inserts write the same bitmap word under it, so
      // an unlocked read here would race them.
      const TableMetaRaw* meta = image->table_meta(undo.table);
      LockId table_lock = LockId::Table(undo.table);
      CWDB_RETURN_IF_ERROR(
          AcquireLock(mgr, txn, table_lock, LockMode::kExclusive));
      if (!image->SlotAllocated(undo.table, undo.slot)) return Status::OK();
      std::string old(
          reinterpret_cast<const char*>(
              image->At(image->RecordOff(undo.table, undo.slot))),
          meta->record_size);
      CWDB_RETURN_IF_ERROR(mgr.BeginOp(txn, OpCode::kDelete, undo.table,
                                       undo.slot, table_lock));
      CWDB_RETURN_IF_ERROR(WriteBitmapBit(mgr, txn, meta, undo.slot, false));
      LogicalUndo inverse;
      inverse.code = UndoCode::kReinsertSlot;
      inverse.table = undo.table;
      inverse.slot = undo.slot;
      inverse.payload = std::move(old);
      return mgr.CommitOp(txn, inverse);
    }

    case UndoCode::kReinsertSlot: {
      // Undo of delete: put the old bytes back at the same slot. Runs
      // unconditionally; re-running overwrites with identical bytes.
      const TableMetaRaw* meta = image->table_meta(undo.table);
      LockId table_lock = LockId::Table(undo.table);
      CWDB_RETURN_IF_ERROR(
          AcquireLock(mgr, txn, table_lock, LockMode::kExclusive));
      CWDB_RETURN_IF_ERROR(mgr.BeginOp(txn, OpCode::kInsert, undo.table,
                                       undo.slot, table_lock));
      CWDB_RETURN_IF_ERROR(WriteBitmapBit(mgr, txn, meta, undo.slot, true));
      CWDB_RETURN_IF_ERROR(
          txn->Update(image->RecordOff(undo.table, undo.slot),
                      undo.payload.data(),
                      static_cast<uint32_t>(undo.payload.size())));
      LogicalUndo inverse;
      inverse.code = UndoCode::kDeleteSlot;
      inverse.table = undo.table;
      inverse.slot = undo.slot;
      return mgr.CommitOp(txn, inverse);
    }

    case UndoCode::kWriteField: {
      DbPtr field_ptr =
          image->RecordOff(undo.table, undo.slot) + undo.field_off;
      std::string current(
          reinterpret_cast<const char*>(image->At(field_ptr)),
          undo.payload.size());
      CWDB_RETURN_IF_ERROR(mgr.BeginOp(txn, OpCode::kUpdate, undo.table,
                                       undo.slot, std::nullopt));
      CWDB_RETURN_IF_ERROR(
          txn->Update(field_ptr, undo.payload.data(),
                      static_cast<uint32_t>(undo.payload.size())));
      LogicalUndo inverse;
      inverse.code = UndoCode::kWriteField;
      inverse.table = undo.table;
      inverse.slot = undo.slot;
      inverse.field_off = undo.field_off;
      inverse.payload = std::move(current);
      return mgr.CommitOp(txn, inverse);
    }

    case UndoCode::kWriteRaw: {
      std::string current(
          reinterpret_cast<const char*>(image->At(undo.raw_off)),
          undo.payload.size());
      CWDB_RETURN_IF_ERROR(mgr.BeginOp(
          txn, OpCode::kUpdate, kMaxTables, kInvalidSlot, std::nullopt,
          undo.raw_off, static_cast<uint32_t>(undo.payload.size())));
      CWDB_RETURN_IF_ERROR(
          txn->Update(undo.raw_off, undo.payload.data(),
                      static_cast<uint32_t>(undo.payload.size())));
      LogicalUndo inverse;
      inverse.code = UndoCode::kWriteRaw;
      inverse.raw_off = undo.raw_off;
      inverse.payload = std::move(current);
      return mgr.CommitOp(txn, inverse);
    }

    case UndoCode::kDropTable: {
      // Undo of create-table: free the directory slot. The bump-allocated
      // extents are intentionally leaked (DESIGN.md).
      const TableMetaRaw* meta = image->table_meta(undo.table);
      if (!meta->in_use) return Status::OK();
      LockId dir_lock = LockId::Directory();
      CWDB_RETURN_IF_ERROR(
          AcquireLock(mgr, txn, dir_lock, LockMode::kExclusive));
      std::string old_meta(
          reinterpret_cast<const char*>(image->At(TableMetaOff(undo.table))),
          kTableMetaBytes);
      CWDB_RETURN_IF_ERROR(mgr.BeginOp(txn, OpCode::kCreateTable, undo.table,
                                       kInvalidSlot, dir_lock));
      uint8_t not_in_use = 0;
      CWDB_RETURN_IF_ERROR(
          txn->Update(TableMetaOff(undo.table), &not_in_use, 1));
      LogicalUndo inverse;
      inverse.code = UndoCode::kWriteRaw;
      inverse.raw_off = TableMetaOff(undo.table);
      inverse.payload = std::move(old_meta);
      return mgr.CommitOp(txn, inverse);
    }
  }
  return Status::Internal("unknown logical undo code");
}

}  // namespace table_ops
}  // namespace cwdb
