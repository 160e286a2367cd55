#ifndef CWDB_TXN_TRANSACTION_H_
#define CWDB_TXN_TRANSACTION_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "obs/span.h"
#include "protect/protection.h"
#include "storage/layout.h"
#include "txn/lock_manager.h"
#include "wal/log_record.h"

namespace cwdb {

class TxnManager;

/// One entry of a transaction's local undo log (Dalí local logging, §2.1).
/// Physical entries carry the undo (before) image of one in-place update;
/// when an operation commits they are replaced by a single logical entry
/// describing the inverse operation.
struct UndoRecord {
  enum class Kind : uint8_t { kPhysical, kLogical };
  Kind kind = Kind::kPhysical;

  // kPhysical.
  DbPtr off = 0;
  std::string before;
  /// The paper's codeword-applied flag (§3.1): set at beginUpdate, reset at
  /// endUpdate. While set, rolling back must restore the undo image without
  /// adjusting the codeword (the codeword still describes the old bytes).
  bool codeword_applied = false;

  // kLogical.
  uint32_t op_id = 0;
  uint8_t level = 1;
  LogicalUndo undo;
};

/// State of the (at most one) operation a transaction has open.
struct OpenOp {
  uint32_t op_id = 0;
  uint8_t level = 1;
  OpCode opcode = OpCode::kInsert;
  /// Lower-level (operation-duration) lock to release at operation commit.
  std::optional<LockId> op_lock;
  /// Length of the undo log (entries) and of the local redo buffer
  /// (bytes) at BeginOp, used to replace physical undo with logical undo
  /// at CommitOp, and to discard the operation's redo on operation abort.
  size_t undo_mark = 0;
  size_t redo_mark = 0;
};

/// A transaction. Created by TxnManager::Begin; all methods must be called
/// from a single thread at a time (different transactions may run on
/// different threads concurrently).
///
/// The "prescribed interface" of the paper's update model is
/// BeginUpdate / EndUpdate: every in-place write to the database image must
/// be bracketed by them so that undo/redo logging, codeword maintenance and
/// page exposure happen. Writing to the image any other way is exactly the
/// direct physical corruption the codeword schemes exist to catch.
class Transaction {
 public:
  enum class State : uint8_t { kActive, kCommitted, kAborted };

  TxnId id() const { return id_; }
  State state() const { return state_; }

  /// Starts an in-place update of [off, off+len): acquires protection
  /// latches / exposes pages, captures the undo image, and returns a
  /// writable pointer to the bytes. At most one update may be in flight.
  Result<uint8_t*> BeginUpdate(DbPtr off, uint32_t len);

  /// Completes the in-flight update: emits the physical redo record,
  /// performs codeword maintenance from the undo image, clears the
  /// codeword-applied flag, and releases latches.
  Status EndUpdate();

  /// Convenience: BeginUpdate + memcpy + EndUpdate.
  Status Update(DbPtr off, const void* data, uint32_t len);

  /// Transactional read of [off, off+len) into `out`. Under Read
  /// Prechecking this verifies the covering regions' codewords first and
  /// returns kCorruption on mismatch; under the read-logging schemes it
  /// appends a read log record (identity + optional checksum, §4.2).
  Status Read(DbPtr off, void* out, uint32_t len);

  /// True between BeginUpdate and EndUpdate.
  bool update_active() const { return update_active_; }
  bool has_open_op() const { return open_op_.has_value(); }
  bool in_rollback() const { return in_rollback_; }

  /// Bytes of undo/redo state held locally (tests, space studies).
  size_t undo_entries() const { return undo_.size(); }

  /// The local undo log (checkpointer, recovery, tests). Reading it is only
  /// safe with the checkpoint latch held exclusively or from the owning
  /// thread.
  const std::vector<UndoRecord>& undo_log() const { return undo_; }
  /// Recovery-only: restart rebuilds undo logs directly.
  std::vector<UndoRecord>& mutable_undo_log() { return undo_; }

  /// This transaction's span context (unsampled unless the tracer picked
  /// it at Begin). Pipeline stages record their spans under it.
  const SpanContext& trace_ctx() const { return trace_ctx_; }

 private:
  friend class TxnManager;
  friend class Checkpointer;
  friend class RecoveryDriver;

  Transaction(TxnManager* mgr, TxnId id) : mgr_(mgr), id_(id) {}

  TxnManager* mgr_;
  TxnId id_;
  State state_ = State::kActive;

  std::vector<UndoRecord> undo_;
  /// Records not yet moved to the system log tail, each encoded once,
  /// directly as its on-disk frame (AppendFrame). Moved as one run at
  /// operation commit (before lower-level locks are released) and at
  /// transaction commit/abort.
  std::string local_redo_;

  std::optional<OpenOp> open_op_;

  // In-flight update state.
  bool update_active_ = false;
  ProtectionManager::UpdateHandle update_handle_;
  std::string update_before_;
  /// Index of the in-flight update's undo entry, or SIZE_MAX if rollback
  /// suppressed it.
  size_t update_undo_idx_ = 0;

  /// Set while this transaction is being rolled back: compensating actions
  /// must not grow the undo log being consumed.
  bool in_rollback_ = false;

  /// Tracing state, set at Begin when this transaction is sampled: the
  /// context child spans attach to, the pre-allocated root span id (the
  /// root is recorded when the transaction retires), and the root's start.
  SpanContext trace_ctx_;
  uint64_t trace_root_span_ = 0;
  uint64_t trace_start_ns_ = 0;
};

}  // namespace cwdb

#endif  // CWDB_TXN_TRANSACTION_H_
