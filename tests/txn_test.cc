// Tests of the transaction layer: the lock manager (modes, re-entrancy,
// deadlock detection under real threads), multi-level operation logging,
// the prescribed update interface, rollback semantics, and concurrent
// transaction isolation.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <map>
#include <thread>
#include <vector>

#include "ckpt/checkpoint.h"
#include "common/random.h"
#include "core/database.h"
#include "obs/metrics.h"
#include "tests/test_util.h"
#include "txn/lock_manager.h"
#include "wal/system_log.h"

namespace cwdb {
namespace {

// ---------- LockManager ----------

TEST(LockManager, SharedLocksCoexist) {
  LockManager lm;
  ASSERT_OK(lm.Acquire(1, LockId::Record(0, 5), LockMode::kShared));
  ASSERT_OK(lm.Acquire(2, LockId::Record(0, 5), LockMode::kShared));
  EXPECT_TRUE(lm.Holds(1, LockId::Record(0, 5), LockMode::kShared));
  EXPECT_TRUE(lm.Holds(2, LockId::Record(0, 5), LockMode::kShared));
  lm.ReleaseAll(1);
  lm.ReleaseAll(2);
  EXPECT_EQ(lm.LockedCount(), 0u);
}

TEST(LockManager, ReentrantAcquire) {
  LockManager lm;
  ASSERT_OK(lm.Acquire(1, LockId::Table(3), LockMode::kExclusive));
  ASSERT_OK(lm.Acquire(1, LockId::Table(3), LockMode::kExclusive));
  ASSERT_OK(lm.Acquire(1, LockId::Table(3), LockMode::kShared));
  EXPECT_TRUE(lm.Holds(1, LockId::Table(3), LockMode::kExclusive));
}

TEST(LockManager, ExclusiveBlocksUntilRelease) {
  LockManager lm;
  ASSERT_OK(lm.Acquire(1, LockId::Record(0, 1), LockMode::kExclusive));
  std::atomic<bool> got{false};
  std::thread other([&] {
    ASSERT_OK(lm.Acquire(2, LockId::Record(0, 1), LockMode::kExclusive));
    got = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(got.load());
  lm.ReleaseAll(1);
  other.join();
  EXPECT_TRUE(got.load());
}

TEST(LockManager, UpgradeWhenSoleHolder) {
  LockManager lm;
  ASSERT_OK(lm.Acquire(1, LockId::Record(0, 2), LockMode::kShared));
  ASSERT_OK(lm.Acquire(1, LockId::Record(0, 2), LockMode::kExclusive));
  EXPECT_TRUE(lm.Holds(1, LockId::Record(0, 2), LockMode::kExclusive));
}

TEST(LockManager, DeadlockDetected) {
  LockManager lm;
  ASSERT_OK(lm.Acquire(1, LockId::Record(0, 1), LockMode::kExclusive));
  ASSERT_OK(lm.Acquire(2, LockId::Record(0, 2), LockMode::kExclusive));

  std::atomic<bool> t2_blocked{false};
  std::thread t2([&] {
    t2_blocked = true;
    // Blocks: txn 1 holds record 1.
    Status s = lm.Acquire(2, LockId::Record(0, 1), LockMode::kExclusive);
    ASSERT_OK(s);  // Granted after txn 1 aborts and releases.
  });
  while (!t2_blocked) std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(10));

  // Txn 1 requesting record 2 closes the cycle: must be refused.
  Status s = lm.Acquire(1, LockId::Record(0, 2), LockMode::kExclusive);
  EXPECT_TRUE(s.IsDeadlock()) << s.ToString();
  lm.ReleaseAll(1);  // Victim aborts; txn 2 proceeds.
  t2.join();
  lm.ReleaseAll(2);
}

TEST(LockManager, SharedUpgradeDeadlock) {
  // Two shared holders both requesting upgrade is a deadlock; the second
  // requester must be refused.
  LockManager lm;
  ASSERT_OK(lm.Acquire(1, LockId::Record(0, 9), LockMode::kShared));
  ASSERT_OK(lm.Acquire(2, LockId::Record(0, 9), LockMode::kShared));
  std::atomic<bool> started{false};
  std::thread t1([&] {
    started = true;
    ASSERT_OK(lm.Acquire(1, LockId::Record(0, 9), LockMode::kExclusive));
  });
  while (!started) std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  Status s = lm.Acquire(2, LockId::Record(0, 9), LockMode::kExclusive);
  EXPECT_TRUE(s.IsDeadlock());
  lm.ReleaseAll(2);
  t1.join();
  lm.ReleaseAll(1);
}

TEST(LockManager, RollbackBreaksCycleThroughSleepingInserter) {
  // The TPC-B shape that used to livelock: an inserter holds the History
  // table lock for its operation and sleeps on the record lock of a slot
  // that a rolling-back transaction freed in the bitmap but still holds;
  // the rollback's next insert-undo needs the table lock. The rollback may
  // not be the victim, so the sleeping inserter must be woken with
  // kDeadlock and give the table lock back. One and eight segments put the
  // two locks in the same and (likely) different segments.
  for (size_t shards : {1u, 8u}) {
    SCOPED_TRACE(shards);
    MetricsRegistry reg;
    LockManager lm(shards);
    lm.BindMetrics(&reg);
    constexpr TxnId kRollback = 1;
    constexpr TxnId kInserter = 2;
    const LockId table = LockId::Table(3);
    const LockId slot = LockId::Record(3, 7);
    ASSERT_OK(lm.Acquire(kRollback, slot, LockMode::kExclusive));
    ASSERT_OK(lm.Acquire(kInserter, table, LockMode::kExclusive));

    Status inserter_status;
    std::thread inserter([&] {
      inserter_status = lm.Acquire(kInserter, slot, LockMode::kExclusive);
      // As table_ops::Insert does when the slot lock fails.
      lm.Release(kInserter, table);
    });
    // Deterministic: the wait counter ticks only after the inserter has
    // entered the waits-for graph.
    Counter* waits = reg.counter("txn.lock_waits");
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (waits->Value() == 0 && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
    ASSERT_EQ(waits->Value(), 1u);

    // Bounded: the rollback's acquire must return, whatever it returns.
    auto rollback = std::async(std::launch::async, [&] {
      return lm.Acquire(kRollback, table, LockMode::kExclusive,
                        /*in_rollback=*/true);
    });
    const bool returned = rollback.wait_for(std::chrono::seconds(10)) ==
                          std::future_status::ready;
    const Status rollback_status =
        returned ? rollback.get() : Status::Internal("rollback still waits");
    // On failure, free the slot so the inserter, and then the rollback,
    // can finish and the test ends.
    if (!rollback_status.ok()) lm.ReleaseAll(kRollback);
    inserter.join();
    if (!returned) rollback.get();
    EXPECT_OK(rollback_status);
    EXPECT_TRUE(inserter_status.IsDeadlock()) << inserter_status.ToString();
    EXPECT_EQ(reg.counter("txn.deadlocks")->Value(), 1u);
    EXPECT_TRUE(lm.Holds(kRollback, table, LockMode::kExclusive));
    EXPECT_FALSE(lm.Holds(kInserter, slot, LockMode::kShared));
    lm.ReleaseAll(kRollback);
    lm.ReleaseAll(kInserter);
    EXPECT_EQ(lm.LockedCount(), 0u);
  }
}

TEST(LockManager, CycleOfRollbacksStillRefusesRequester) {
  // With no cycle member able to abort, the requester gets kDeadlock (its
  // caller retries) rather than waiting forever.
  MetricsRegistry reg;
  LockManager lm;
  lm.BindMetrics(&reg);
  ASSERT_OK(lm.Acquire(1, LockId::Record(0, 1), LockMode::kExclusive));
  ASSERT_OK(lm.Acquire(2, LockId::Record(0, 2), LockMode::kExclusive));
  std::thread t2([&] {
    EXPECT_OK(lm.Acquire(2, LockId::Record(0, 1), LockMode::kExclusive,
                         /*in_rollback=*/true));
  });
  Counter* waits = reg.counter("txn.lock_waits");
  while (waits->Value() == 0) std::this_thread::yield();  // t2 is waiting.
  Status s = lm.Acquire(1, LockId::Record(0, 2), LockMode::kExclusive,
                        /*in_rollback=*/true);
  EXPECT_TRUE(s.IsDeadlock()) << s.ToString();
  lm.ReleaseAll(1);
  t2.join();
  lm.ReleaseAll(2);
  EXPECT_EQ(lm.LockedCount(), 0u);
}

/// A plain reference model of the lock table for single-threaded sequences:
/// holders per lock id and each transaction's acquisition order.
struct LockModel {
  std::map<LockId, std::map<TxnId, LockMode>> holders;
  std::map<TxnId, std::vector<LockId>> order;

  bool Holds(TxnId t, LockId id, LockMode mode) const {
    auto it = holders.find(id);
    if (it == holders.end()) return false;
    auto h = it->second.find(t);
    return h != it->second.end() &&
           (mode == LockMode::kShared || h->second == LockMode::kExclusive);
  }
  /// False when the request would block on another holder.
  bool Grantable(TxnId t, LockId id, LockMode mode) const {
    auto it = holders.find(id);
    if (it == holders.end()) return true;
    for (const auto& [holder, held] : it->second) {
      if (holder == t) continue;
      if (mode == LockMode::kExclusive || held == LockMode::kExclusive) {
        return false;
      }
    }
    return true;
  }
  void Grant(TxnId t, LockId id, LockMode mode) {
    if (Holds(t, id, mode)) return;
    auto [it, fresh] = holders[id].emplace(t, mode);
    if (fresh) {
      order[t].push_back(id);
    } else {
      it->second = mode;
    }
  }
  void Release(TxnId t, LockId id) {
    auto it = holders.find(id);
    if (it == holders.end() || it->second.erase(t) == 0) return;
    if (it->second.empty()) holders.erase(it);
    std::vector<LockId>& ids = order[t];
    ids.erase(std::find(ids.begin(), ids.end(), id));
  }
  void ReleaseAll(TxnId t) {
    for (LockId id : std::vector<LockId>(order[t])) Release(t, id);
    order.erase(t);
  }
};

TEST(LockManager, MatchesReferenceModelOnRandomSequences) {
  // Seeded random single-threaded sequences against the model; requests
  // the model says would block are skipped. A small id space keeps
  // upgrades, re-entrant acquires, releases from the middle of a held list
  // and reuse of retired entries frequent; each is counted and required.
  std::vector<LockId> ids = {LockId::Directory()};
  for (TableId t = 0; t < 3; ++t) {
    ids.push_back(LockId::Table(t));
    for (uint32_t s = 0; s < 8; ++s) ids.push_back(LockId::Record(t, s));
  }
  constexpr TxnId kTxns = 5;
  int upgrades = 0, reentrant = 0, middle_releases = 0, reuses = 0;
  for (uint64_t seed : {1u, 2u, 3u, 4u}) {
    for (size_t shards : {1u, 4u}) {
      SCOPED_TRACE(testing::Message() << "seed " << seed << " shards "
                                      << shards);
      LockManager lm(shards);
      LockModel model;
      Random rng(seed * 1000 + shards);
      bool retired = false;  // Some entry has been retired since a Clear.
      for (int step = 0; step < 3000; ++step) {
        const TxnId t = 1 + rng.Uniform(kTxns);
        const LockId id = ids[rng.Uniform(ids.size())];
        const LockMode mode =
            rng.OneIn(2) ? LockMode::kShared : LockMode::kExclusive;
        const size_t locked_before = model.holders.size();
        switch (rng.Uniform(20)) {
          case 0:
            lm.ReleaseAll(t);
            model.ReleaseAll(t);
            break;
          case 1:
          case 2:
          case 3: {
            // Prefer a lock `t` holds, so most releases hit something.
            std::vector<LockId>& held = model.order[t];
            LockId victim = id;
            if (!held.empty()) victim = held[rng.Uniform(held.size())];
            if (held.size() > 1 && !(victim == held.back())) {
              ++middle_releases;
            }
            lm.Release(t, victim);
            model.Release(t, victim);
            break;
          }
          case 4:
            if (rng.OneIn(50)) {
              lm.Clear();
              model = LockModel();
              retired = false;
            }
            break;
          default: {
            if (!model.Grantable(t, id, mode)) break;  // Would block.
            if (model.Holds(t, id, LockMode::kShared)) {
              if (model.Holds(t, id, mode)) {
                ++reentrant;
              } else {
                ++upgrades;
              }
            } else if (retired && model.holders.count(id) == 0) {
              ++reuses;
            }
            ASSERT_OK(lm.Acquire(t, id, mode));
            model.Grant(t, id, mode);
            break;
          }
        }
        if (model.holders.size() < locked_before) retired = true;
        ASSERT_EQ(lm.LockedCount(), model.holders.size()) << "step " << step;
        for (TxnId u = 1; u <= kTxns; ++u) {
          for (LockId x : ids) {
            for (LockMode m : {LockMode::kShared, LockMode::kExclusive}) {
              ASSERT_EQ(lm.Holds(u, x, m), model.Holds(u, x, m))
                  << "step " << step << " txn " << u << " id " << x.table
                  << "/" << x.slot;
            }
          }
        }
      }
      for (TxnId u = 1; u <= kTxns; ++u) lm.ReleaseAll(u);
      EXPECT_EQ(lm.LockedCount(), 0u);
    }
  }
  EXPECT_GT(upgrades, 0);
  EXPECT_GT(reentrant, 0);
  EXPECT_GT(middle_releases, 0);
  EXPECT_GT(reuses, 0);
}

// ---------- Transaction-level behaviour over a Database ----------

class TxnTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto db =
        Database::Open(SmallDbOptions(dir_.path(), ProtectionScheme::kNone));
    ASSERT_TRUE(db.ok());
    db_ = std::move(db).value();
    auto txn = db_->Begin();
    auto t = db_->CreateTable(*txn, "t", 64, 256);
    ASSERT_TRUE(t.ok());
    table_ = *t;
    ASSERT_OK(db_->Commit(*txn));
  }

  TempDir dir_;
  std::unique_ptr<Database> db_;
  TableId table_;
};

TEST_F(TxnTest, TwoPhaseUpdateInterface) {
  auto txn = db_->Begin();
  auto rid = db_->Insert(*txn, table_, std::string(64, 'i'));
  ASSERT_TRUE(rid.ok());
  DbPtr off = db_->image()->RecordOff(table_, rid->slot);

  // Application-style direct in-place write via the prescribed interface.
  ASSERT_OK(db_->txns()->BeginOp(*txn, OpCode::kUpdate, kMaxTables,
                                 kInvalidSlot, std::nullopt, off, 4));
  auto p = (*txn)->BeginUpdate(off, 4);
  ASSERT_TRUE(p.ok());
  EXPECT_TRUE((*txn)->update_active());
  std::memcpy(*p, "WXYZ", 4);
  ASSERT_OK((*txn)->EndUpdate());
  EXPECT_FALSE((*txn)->update_active());
  LogicalUndo undo;
  undo.code = UndoCode::kWriteRaw;
  undo.raw_off = off;
  undo.payload = std::string(4, 'i');
  ASSERT_OK(db_->txns()->CommitOp(*txn, undo));
  ASSERT_OK(db_->Commit(*txn));

  txn = db_->Begin();
  std::string got;
  ASSERT_OK(db_->Read(*txn, table_, rid->slot, &got));
  EXPECT_EQ(got.substr(0, 4), "WXYZ");
  ASSERT_OK(db_->Commit(*txn));
}

TEST_F(TxnTest, RollbackOfInFlightUpdate) {
  auto txn = db_->Begin();
  auto rid = db_->Insert(*txn, table_, std::string(64, 'f'));
  ASSERT_TRUE(rid.ok());
  ASSERT_OK(db_->Commit(*txn));

  txn = db_->Begin();
  const TxnId aborted = (*txn)->id();
  DbPtr off = db_->image()->RecordOff(table_, rid->slot);
  ASSERT_OK(db_->txns()->BeginOp(*txn, OpCode::kUpdate, kMaxTables,
                                 kInvalidSlot, std::nullopt, off, 16));
  // One finished update (its redo frame is built) before the one in flight.
  ASSERT_OK((*txn)->Update(off + 8, "complete", 8));
  auto p = (*txn)->BeginUpdate(off, 8);
  ASSERT_TRUE(p.ok());
  std::memcpy(*p, "halfdone", 8);
  // Abort with the update still in flight (codeword-applied flag set).
  ASSERT_OK(db_->Abort(*txn));

  txn = db_->Begin();
  std::string got;
  ASSERT_OK(db_->Read(*txn, table_, rid->slot, &got));
  EXPECT_EQ(got, std::string(64, 'f'));
  ASSERT_OK(db_->Commit(*txn));

  // The open operation's frames never left the local buffer: the log holds
  // only the aborted transaction's begin and abort records.
  auto reader = LogReader::Open(DbFiles(dir_.path()).SystemLog(), 0,
                                kInvalidLsn);
  ASSERT_OK(reader.status());
  std::vector<LogRecordType> types;
  LogRecord rec;
  Lsn lsn;
  while ((*reader)->Next(&rec, &lsn)) {
    if (rec.txn == aborted) types.push_back(rec.type);
  }
  ASSERT_OK((*reader)->status());
  EXPECT_EQ(types, (std::vector<LogRecordType>{LogRecordType::kBeginTxn,
                                               LogRecordType::kAbortTxn}));
}

TEST_F(TxnTest, UndoLogCompaction) {
  // Physical undo entries of an operation are replaced by one logical
  // entry at operation commit (multi-level recovery, §2.1).
  auto txn = db_->Begin();
  auto rid = db_->Insert(*txn, table_, std::string(64, 'u'));
  ASSERT_TRUE(rid.ok());
  // Insert performed >= 2 physical updates (bitmap + record bytes) but
  // leaves exactly one logical undo entry.
  EXPECT_EQ((*txn)->undo_entries(), 1u);
  ASSERT_OK(db_->Update(*txn, table_, rid->slot, 0, "abcd"));
  EXPECT_EQ((*txn)->undo_entries(), 2u);
  ASSERT_OK(db_->Commit(*txn));
}

TEST_F(TxnTest, IsolationReadersBlockedByWriters) {
  auto t1 = db_->Begin();
  auto rid = db_->Insert(*t1, table_, std::string(64, 'w'));
  ASSERT_TRUE(rid.ok());
  ASSERT_OK(db_->Commit(*t1));

  t1 = db_->Begin();
  ASSERT_OK(db_->Update(*t1, table_, rid->slot, 0, "DIRTY"));

  std::atomic<bool> read_done{false};
  std::string got;
  std::thread reader([&] {
    auto t2 = db_->Begin();
    EXPECT_OK(db_->Read(*t2, table_, rid->slot, &got));
    read_done = true;
    EXPECT_OK(db_->Commit(*t2));
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(read_done.load()) << "reader saw uncommitted data";
  ASSERT_OK(db_->Commit(*t1));
  reader.join();
  EXPECT_EQ(got.substr(0, 5), "DIRTY");  // Strict 2PL: read after commit.
}

TEST_F(TxnTest, DeadlockVictimCanRetry) {
  auto t1 = db_->Begin();
  auto r1 = db_->Insert(*t1, table_, std::string(64, '1'));
  auto r2 = db_->Insert(*t1, table_, std::string(64, '2'));
  ASSERT_TRUE(r1.ok() && r2.ok());
  ASSERT_OK(db_->Commit(*t1));

  auto ta = db_->Begin();
  auto tb = db_->Begin();
  ASSERT_OK(db_->Update(*ta, table_, r1->slot, 0, "A"));
  ASSERT_OK(db_->Update(*tb, table_, r2->slot, 0, "B"));

  std::thread other([&] {
    // tb waits for r1 (held by ta).
    Status s = db_->Update(*tb, table_, r1->slot, 0, "B2");
    // Granted after ta aborts.
    EXPECT_OK(s);
    EXPECT_OK(db_->Commit(*tb));
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  // ta requesting r2 closes the cycle -> deadlock -> victim.
  Status s = db_->Update(*ta, table_, r2->slot, 0, "A2");
  EXPECT_TRUE(s.IsDeadlock()) << s.ToString();
  ASSERT_OK(db_->Abort(*ta));
  other.join();

  // tb's writes won; ta's rolled back.
  auto txn = db_->Begin();
  std::string got;
  ASSERT_OK(db_->Read(*txn, table_, r1->slot, &got));
  EXPECT_EQ(got[0], 'B');
  ASSERT_OK(db_->Commit(*txn));
}

TEST_F(TxnTest, ConcurrentDisjointTransactions) {
  constexpr int kThreads = 4;
  constexpr int kPerThread = 25;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      for (int j = 0; j < kPerThread; ++j) {
        auto txn = db_->Begin();
        if (!txn.ok()) {
          ++failures;
          return;
        }
        auto rid =
            db_->Insert(*txn, table_, std::string(64, 'a' + (i * 7 + j) % 26));
        if (!rid.ok() || !db_->Commit(*txn).ok()) ++failures;
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(db_->CountRecords(table_), kThreads * kPerThread);
}

TEST_F(TxnTest, AbortRestoresExactByteImage) {
  auto txn = db_->Begin();
  auto rid = db_->Insert(*txn, table_, std::string(64, 'e'));
  ASSERT_TRUE(rid.ok());
  ASSERT_OK(db_->Commit(*txn));
  std::string before(
      reinterpret_cast<const char*>(db_->UnsafeRawBase()),
      4096);  // Header page snapshot.

  txn = db_->Begin();
  for (int i = 0; i < 10; ++i) {
    ASSERT_OK(db_->Update(*txn, table_, rid->slot, i * 4, "!!!!"));
  }
  auto r2 = db_->Insert(*txn, table_, std::string(64, 'n'));
  ASSERT_TRUE(r2.ok());
  ASSERT_OK(db_->Delete(*txn, table_, rid->slot));
  ASSERT_OK(db_->Abort(*txn));

  txn = db_->Begin();
  std::string got;
  ASSERT_OK(db_->Read(*txn, table_, rid->slot, &got));
  EXPECT_EQ(got, std::string(64, 'e'));
  ASSERT_OK(db_->Commit(*txn));
  EXPECT_EQ(db_->CountRecords(table_), 1u);
  EXPECT_EQ(std::memcmp(before.data(), db_->UnsafeRawBase(), 4096), 0);
}

}  // namespace
}  // namespace cwdb
