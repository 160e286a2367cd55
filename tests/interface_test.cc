// Contract tests of the prescribed update interface and facade: invariant
// violations abort (death tests), bounds are enforced, the checkpoint
// latch excludes in-flight updates, and independent databases coexist in
// one process.

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <thread>

#include "core/database.h"
#include "tests/test_util.h"

namespace cwdb {
namespace {

class InterfaceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto db = Database::Open(
        SmallDbOptions(dir_.path(), ProtectionScheme::kDataCodeword));
    ASSERT_TRUE(db.ok());
    db_ = std::move(db).value();
    auto txn = db_->Begin();
    auto t = db_->CreateTable(*txn, "t", 64, 16);
    ASSERT_TRUE(t.ok());
    table_ = *t;
    auto rid = db_->Insert(*txn, table_, std::string(64, 'c'));
    ASSERT_TRUE(rid.ok());
    slot_ = rid->slot;
    ASSERT_OK(db_->Commit(*txn));
  }

  TempDir dir_;
  std::unique_ptr<Database> db_;
  TableId table_ = 0;
  uint32_t slot_ = 0;
};

/// The threadsafe death-test style re-executes the test binary, so the
/// child runs SetUp into a TempDir of its own and dies before ~TempDir can
/// remove it. Each death statement removes that directory first (the
/// statement runs only in the child), so a run leaves nothing behind.
class InterfaceDeathTest : public InterfaceTest {
 protected:
  void RemoveChildDir() { std::filesystem::remove_all(dir_.path()); }
};

TEST_F(InterfaceDeathTest, NestedBeginUpdateAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  auto txn = db_->Begin();
  DbPtr off = db_->image()->RecordOff(table_, slot_);
  ASSERT_OK(db_->txns()->BeginOp(*txn, OpCode::kUpdate, kMaxTables,
                                 kInvalidSlot, std::nullopt, off, 8));
  ASSERT_TRUE((*txn)->BeginUpdate(off, 8).ok());
  EXPECT_DEATH(
      {
        RemoveChildDir();
        (void)(*txn)->BeginUpdate(off + 8, 8);
      },
      "nested BeginUpdate");
}

TEST_F(InterfaceDeathTest, EndUpdateWithoutBeginAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  auto txn = db_->Begin();
  EXPECT_DEATH(
      {
        RemoveChildDir();
        (void)(*txn)->EndUpdate();
      },
      "EndUpdate without BeginUpdate");
}

TEST_F(InterfaceDeathTest, UpdateOutsideOperationAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  auto txn = db_->Begin();
  DbPtr off = db_->image()->RecordOff(table_, slot_);
  EXPECT_DEATH(
      {
        RemoveChildDir();
        (void)(*txn)->BeginUpdate(off, 8);
      },
      "update outside an operation");
}

TEST_F(InterfaceDeathTest, CommitWithOpenOperationAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  auto txn = db_->Begin();
  ASSERT_OK(db_->txns()->BeginOp(*txn, OpCode::kUpdate, table_, slot_,
                                 std::nullopt));
  EXPECT_DEATH(
      {
        RemoveChildDir();
        (void)db_->Commit(*txn);
      },
      "operation or update in flight");
}

TEST_F(InterfaceTest, UpdateBoundsEnforced) {
  auto txn = db_->Begin();
  ASSERT_OK(db_->txns()->BeginOp(*txn, OpCode::kUpdate, kMaxTables,
                                 kInvalidSlot, std::nullopt, 0, 8));
  EXPECT_FALSE((*txn)->BeginUpdate(db_->arena_size(), 8).ok());
  EXPECT_FALSE((*txn)->BeginUpdate(db_->arena_size() - 4, 8).ok());
  EXPECT_FALSE((*txn)->BeginUpdate(0, 0).ok());  // Zero length.
  ASSERT_OK(db_->txns()->AbortOp(*txn));
  ASSERT_OK(db_->Abort(*txn));
}

TEST_F(InterfaceTest, ReadBoundsEnforced) {
  auto txn = db_->Begin();
  char buf[8];
  EXPECT_FALSE((*txn)->Read(db_->arena_size(), buf, 8).ok());
  EXPECT_FALSE((*txn)->Read(db_->arena_size() - 4, buf, 8).ok());
  ASSERT_OK(db_->Commit(*txn));
}

TEST_F(InterfaceTest, CheckpointBlocksOnInFlightUpdate) {
  auto txn = db_->Begin();
  DbPtr off = db_->image()->RecordOff(table_, slot_);
  ASSERT_OK(db_->txns()->BeginOp(*txn, OpCode::kUpdate, kMaxTables,
                                 kInvalidSlot, std::nullopt, off, 8));
  auto p = (*txn)->BeginUpdate(off, 8);
  ASSERT_TRUE(p.ok());

  std::atomic<bool> ckpt_done{false};
  std::thread ckpt([&] {
    EXPECT_OK(db_->Checkpoint());
    ckpt_done = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  // The checkpoint copy phase must wait for the update window to close —
  // that is what makes checkpoints update-consistent.
  EXPECT_FALSE(ckpt_done.load());

  std::memcpy(*p, "FINISHED", 8);
  ASSERT_OK((*txn)->EndUpdate());
  LogicalUndo undo;
  undo.code = UndoCode::kWriteRaw;
  undo.raw_off = off;
  undo.payload = std::string(8, 'c');
  ASSERT_OK(db_->txns()->CommitOp(*txn, undo));
  ckpt.join();
  EXPECT_TRUE(ckpt_done.load());
  ASSERT_OK(db_->Commit(*txn));
}

TEST_F(InterfaceTest, OperationAbortDiscardsItsEffects) {
  auto txn = db_->Begin();
  DbPtr off = db_->image()->RecordOff(table_, slot_);
  ASSERT_OK(db_->txns()->BeginOp(*txn, OpCode::kUpdate, kMaxTables,
                                 kInvalidSlot, std::nullopt, off, 8));
  ASSERT_OK((*txn)->Update(off, "ZZZZZZZZ", 8));
  ASSERT_OK(db_->txns()->AbortOp(*txn));
  // The operation's update is gone, the transaction is still usable.
  std::string got;
  ASSERT_OK(db_->Read(*txn, table_, slot_, &got));
  EXPECT_EQ(got, std::string(64, 'c'));
  ASSERT_OK(db_->Commit(*txn));
  // Codewords stayed consistent through the unlogged restore.
  auto audit = db_->Audit();
  ASSERT_TRUE(audit.ok());
  EXPECT_TRUE(audit->clean);
}

TEST(MultiDb, IndependentDatabasesCoexist) {
  TempDir dir_a, dir_b;
  auto a = Database::Open(
      SmallDbOptions(dir_a.path(), ProtectionScheme::kHardware));
  auto b = Database::Open(
      SmallDbOptions(dir_b.path(), ProtectionScheme::kReadPrecheck, 64));
  ASSERT_TRUE(a.ok() && b.ok());

  auto ta = (*a)->Begin();
  auto tb = (*b)->Begin();
  auto table_a = (*a)->CreateTable(*ta, "shared_name", 32, 8);
  auto table_b = (*b)->CreateTable(*tb, "shared_name", 48, 8);
  ASSERT_TRUE(table_a.ok() && table_b.ok());
  ASSERT_TRUE((*a)->Insert(*ta, *table_a, std::string(32, 'A')).ok());
  ASSERT_TRUE((*b)->Insert(*tb, *table_b, std::string(48, 'B')).ok());
  ASSERT_OK((*a)->Commit(*ta));
  ASSERT_OK((*b)->Commit(*tb));

  EXPECT_EQ((*a)->CountRecords(*table_a), 1u);
  EXPECT_EQ((*b)->CountRecords(*table_b), 1u);
  ASSERT_OK((*a)->CrashAndRecover());
  EXPECT_EQ((*a)->CountRecords(*(*a)->FindTable("shared_name")), 1u);
  EXPECT_EQ((*b)->CountRecords(*table_b), 1u);  // Untouched by a's crash.
}

}  // namespace
}  // namespace cwdb
