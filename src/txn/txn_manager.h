#ifndef CWDB_TXN_TXN_MANAGER_H_
#define CWDB_TXN_TXN_MANAGER_H_

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "common/latch.h"
#include "common/result.h"
#include "common/status.h"
#include "protect/protection.h"
#include "storage/db_image.h"
#include "txn/lock_manager.h"
#include "txn/transaction.h"
#include "wal/system_log.h"

namespace cwdb {

/// Transaction manager: owns the active transaction table (ATT) and
/// implements the Dalí multi-level transaction model (§2.1) —
///  * level 0: physical in-place updates (BeginUpdate/EndUpdate),
///  * level 1: operations (BeginOp/CommitOp carrying logical undo),
///  * level 2: transactions (Begin/Commit/Abort).
///
/// Redo is purely physical and moves from per-transaction local buffers to
/// the system log tail when an operation commits, before the operation's
/// lower-level locks are released. Rollback consumes the local undo log
/// LIFO: logical entries run the inverse operation as a first-class
/// operation (its redo is logged); physical entries are restored with a
/// logged compensating physical update. Because restart redo repeats all
/// history from an update-consistent checkpoint and physical undo is
/// value-restoring, a crash during rollback recovers correctly without
/// ARIES-style CLRs (see DESIGN.md).
class TxnManager {
 public:
  /// Commit/abort counts and latencies are reported into `metrics`
  /// (nullptr = a private registry, for standalone construction in tests).
  /// `lock_shards` sizes the lock manager's segment table (the Database
  /// passes its shard count; 1 = the pre-sharding single-segment table).
  TxnManager(DbImage* image, ProtectionManager* protection, SystemLog* log,
             MetricsRegistry* metrics = nullptr, size_t lock_shards = 1);

  TxnManager(const TxnManager&) = delete;
  TxnManager& operator=(const TxnManager&) = delete;

  DbImage* image() const { return image_; }
  ProtectionManager* protection() const { return protection_; }
  SystemLog* log() const { return log_; }
  LockManager& locks() { return locks_; }
  MetricsRegistry* metrics() const { return metrics_; }

  /// Held shared by every update window and local-log mutation; held
  /// exclusively by the checkpointer while copying the image and ATT, which
  /// is what makes checkpoints update-consistent (DESIGN.md §2).
  Latch& checkpoint_latch() { return ckpt_latch_; }

  // -- Transactions --

  Result<Transaction*> Begin();
  /// Moves remaining redo + commit record to the system log, flushes it,
  /// releases all locks and retires the transaction.
  Status Commit(Transaction* txn);
  /// Rolls back and retires the transaction.
  Status Abort(Transaction* txn);

  // -- Operations (used by table_ops and recovery) --

  /// Opens an operation. The caller has already acquired `op_lock` (if
  /// any); it will be released at CommitOp. `raw_off`/`raw_len` describe
  /// the physical target of raw-region operations (0/0 otherwise) for the
  /// corruption-recovery conflict check.
  Status BeginOp(Transaction* txn, OpCode opcode, TableId table,
                 uint32_t slot, std::optional<LockId> op_lock,
                 DbPtr raw_off = 0, uint32_t raw_len = 0);
  /// Commits the open operation: logs the operation-commit record with its
  /// logical undo, replaces the operation's physical undo entries with the
  /// logical entry, moves local redo to the system log tail, and releases
  /// the operation lock.
  Status CommitOp(Transaction* txn, const LogicalUndo& undo);
  /// Aborts the open operation: physically restores its updates and
  /// discards its local redo (which never reached the system log).
  Status AbortOp(Transaction* txn);

  /// Executes one logical undo action as a first-class inverse operation.
  /// Used by rollback and by restart recovery's undo phase.
  Status ExecuteLogicalUndo(Transaction* txn, const LogicalUndo& undo);

  /// Rolls back `txn` (open operation first, then the undo log LIFO) and
  /// writes the abort record. Does not release locks or retire the
  /// transaction — Abort() wraps this.
  Status Rollback(Transaction* txn);

  // -- Savepoints (partial rollback) --

  /// Marks the current extent of `txn`'s work. No operation may be open.
  /// The id stays valid until the transaction ends or a rollback passes it.
  Result<uint64_t> CreateSavepoint(Transaction* txn);

  /// Undoes everything `txn` did after the savepoint (inverse operations
  /// and compensations are logged like any rollback; locks acquired since
  /// are retained, as is conventional). The transaction stays active and
  /// the savepoint may be rolled back to again.
  Status RollbackToSavepoint(Transaction* txn, uint64_t savepoint);

  // -- Recovery support --

  /// In recovery mode lock acquisition is skipped (recovery is offline and
  /// single-threaded) and reads are neither prechecked nor logged.
  bool recovery_mode() const { return recovery_mode_; }
  void set_recovery_mode(bool on) { recovery_mode_ = on; }

  /// Returns the ATT entry for `id`, creating an active transaction without
  /// logging a begin record (restart recovery rebuilding the ATT).
  Transaction* GetOrCreateRecovered(TxnId id);
  /// Drops a transaction from the ATT without any logging (recovery).
  void DropRecovered(TxnId id);

  const std::map<TxnId, std::unique_ptr<Transaction>>& att() const {
    return att_;
  }
  std::map<TxnId, std::unique_ptr<Transaction>>& mutable_att() {
    return att_;
  }

  /// Calls `fn(const Transaction&)` on each transaction still active, under
  /// the ATT lock. The checkpointer copies the ATT this way while it holds
  /// the checkpoint latch exclusively (lock order: checkpoint latch, then
  /// the ATT lock; nothing takes them the other way round), so no entry is
  /// inserted or freed and no undo log is mid-mutation during the walk. A
  /// transaction whose commit or abort record is already staged is skipped:
  /// that record may precede CK_end, and recovery must not roll it back.
  template <typename Fn>
  void ForEachActive(Fn&& fn) {
    std::lock_guard<std::mutex> guard(att_mu_);
    for (const auto& [id, txn] : att_) {
      if (txn->state() == Transaction::State::kActive) fn(*txn);
    }
  }

  /// Ids of all currently active transactions, under the ATT lock — safe
  /// to call from other threads (forensics snapshots the set into a
  /// corruption dossier).
  std::vector<TxnId> ActiveTxnIds();

  /// Lowest active transaction id, 0 when none. Ids ascend, so the
  /// watchdog's oldest-txn probe reads this as its progress value: it only
  /// changes when the oldest transaction retires.
  TxnId OldestActiveTxn() {
    std::lock_guard<std::mutex> guard(att_mu_);
    return att_.empty() ? 0 : att_.begin()->first;
  }

  /// Ensures future transaction / operation ids do not collide with
  /// recovered ones.
  void BumpIds(TxnId txn_floor, uint32_t op_floor);

  /// Completes the rollback of a recovered transaction: writes its abort
  /// record, moves remaining local redo to the system log, and drops it
  /// from the ATT. The undo log must already be empty.
  Status FinishRecoveredRollback(Transaction* txn);

  /// Crash simulation: discards all volatile transaction state (ATT, lock
  /// tables). Every outstanding Transaction* becomes invalid.
  void ClearForCrash();

  uint64_t commits() const { return ins_.commits->Value(); }
  uint64_t aborts() const { return ins_.aborts->Value(); }

 private:
  friend class Transaction;

  /// Appends `txn`'s pending local-redo frames to the system log tail as
  /// one run (the paper's "redo log records are moved from the local redo
  /// log to the system log tail"). `trace`, when sampled, rides the staged
  /// frames to the drainer so its spans join the commit's trace (Commit
  /// passes the flush-wait context; mid-transaction moves pass nothing).
  void MoveRedoToSystemLog(Transaction* txn,
                           const SpanContext* trace = nullptr);

  /// Physically restores `before` at `off` as a logged compensation.
  Status ApplyCompensation(Transaction* txn, DbPtr off, const std::string& before);

  /// Applies-and-pops undo entries newest-first until `mark` entries
  /// remain. The caller has set in_rollback_.
  Status UndoDownTo(Transaction* txn, size_t mark);

  struct Instruments {
    Counter* commits;
    Counter* aborts;
    Gauge* active;
    Histogram* commit_latency_ns;
    Histogram* abort_latency_ns;
  };

  DbImage* image_;
  ProtectionManager* protection_;
  SystemLog* log_;
  std::unique_ptr<MetricsRegistry> own_metrics_;
  MetricsRegistry* metrics_;
  Instruments ins_;
  LockManager locks_;
  Latch ckpt_latch_;

  std::mutex att_mu_;
  std::map<TxnId, std::unique_ptr<Transaction>> att_;
  TxnId next_txn_id_ = 1;
  // BeginOp allocates operation ids outside att_mu_ (it runs on the caller's
  // thread after locks are held), so the counter must be atomic.
  std::atomic<uint32_t> next_op_id_{1};
  bool recovery_mode_ = false;
};

}  // namespace cwdb

#endif  // CWDB_TXN_TXN_MANAGER_H_
