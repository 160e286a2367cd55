// Tests of the background auditor (§3.2 asynchronous audits): sliced
// sweeps, bounded detection latency, Audit_SN advancement on clean sweeps,
// the corruption callback path, and end-to-end recovery triggered from the
// auditor. Plus concurrent-workload tests: audits racing transactions,
// scans, and the multi-threaded TPC-B extension.

#include "core/auditor.h"

#include <gtest/gtest.h>

#include <atomic>

#include "common/file_util.h"
#include "faultinject/fault_injector.h"
#include "recovery/corrupt_note.h"
#include "tests/test_util.h"
#include "workload/tpcb.h"

namespace cwdb {
namespace {

/// Image offset of a *different* region in the same parity group as `off`
/// (fixture geometry: 512-byte regions, default 64-region groups).
/// Corrupting both exceeds the repair tier's one-region-per-group budget,
/// so the auditor must fall back to the detection callback instead of
/// silently reconstructing the damage in place.
DbPtr SameGroupSibling(DbPtr off) {
  constexpr uint64_t kRegion = 512, kGroup = 64;
  uint64_t r = off / kRegion;
  uint64_t sib = (r % kGroup != kGroup - 1) ? r + 1 : r - 1;
  return sib * kRegion;
}

class AuditorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto db = Database::Open(
        SmallDbOptions(dir_.path(), ProtectionScheme::kDataCodeword, 512));
    ASSERT_TRUE(db.ok());
    db_ = std::move(db).value();
    auto txn = db_->Begin();
    auto t = db_->CreateTable(*txn, "t", 100, 512);
    ASSERT_TRUE(t.ok());
    table_ = *t;
    for (int i = 0; i < 200; ++i) {
      ASSERT_TRUE(db_->Insert(*txn, table_, std::string(100, 'a')).ok());
    }
    ASSERT_OK(db_->Commit(*txn));
  }

  static BackgroundAuditor::Options FastOptions() {
    BackgroundAuditor::Options o;
    o.interval = std::chrono::milliseconds(1);
    o.slice_bytes = 256 << 10;
    return o;
  }

  TempDir dir_;
  std::unique_ptr<Database> db_;
  TableId table_ = 0;
};

TEST_F(AuditorTest, CleanDatabaseSweepsForever) {
  BackgroundAuditor auditor(db_.get(), FastOptions(), nullptr);
  auditor.Start();
  auditor.WaitForFullSweep();
  auditor.Stop();
  EXPECT_GE(auditor.sweeps_completed(), 2u);
  EXPECT_FALSE(auditor.corruption_seen());
}

TEST_F(AuditorTest, CleanSweepAdvancesAuditSn) {
  Lsn before = db_->CurrentLsn();
  BackgroundAuditor auditor(db_.get(), FastOptions(), nullptr);
  auditor.Start();
  auditor.WaitForFullSweep();
  auditor.Stop();
  DbFiles files(dir_.path());
  auto lsn = ReadAuditMeta(files.AuditMeta());
  ASSERT_TRUE(lsn.ok());
  EXPECT_GE(*lsn, before);
}

TEST_F(AuditorTest, DetectsInjectedCorruptionAndFiresCallback) {
  std::atomic<bool> fired{false};
  AuditReport captured;
  BackgroundAuditor auditor(db_.get(), FastOptions(),
                            [&](const AuditReport& report) {
                              captured = report;
                              fired = true;
                            });
  auditor.Start();
  auditor.WaitForFullSweep();  // Let it establish a clean baseline.

  // Two corrupt regions in one parity group: past the repair tier's
  // correction budget, so the sweep must surface the damage instead of
  // fixing it in place.
  FaultInjector inject(db_.get(), 9);
  DbPtr off = db_->image()->RecordOff(table_, 50);
  inject.WildWriteAt(off, "ASYNC CORRUPTION");
  inject.WildWriteAt(SameGroupSibling(off) + 16, "ASYNC CORRUPTION");

  // Bounded detection latency: within ~one sweep.
  auditor.WaitForFullSweep();
  auditor.Stop();
  ASSERT_TRUE(fired.load());
  EXPECT_FALSE(captured.clean);
  ASSERT_FALSE(captured.ranges.empty());
  // The note is durable: a subsequent open runs corruption recovery.
  DbFiles files(dir_.path());
  EXPECT_TRUE(FileExists(files.CorruptNote()));
}

TEST_F(AuditorTest, LoneCorruptionIsRepairedInPlaceWithoutCallback) {
  // A single corrupt region per parity group is within the repair tier's
  // correction budget: the sweep reconstructs it in place, re-audits, and
  // never escalates to the corruption callback.
  std::atomic<bool> fired{false};
  BackgroundAuditor auditor(db_.get(), FastOptions(),
                            [&](const AuditReport&) { fired = true; });
  auditor.Start();
  auditor.WaitForFullSweep();
  FaultInjector inject(db_.get(), 12);
  ASSERT_TRUE(
      inject.WildWriteAt(db_->image()->RecordOff(table_, 50), "wild@r1te")
          .changed_bits);
  auditor.WaitForFullSweep();
  auditor.WaitForFullSweep();  // At least one full sweep past the repair.
  auditor.Stop();
  EXPECT_FALSE(fired.load());
  EXPECT_GE(db_->metrics()->counter("repair.success")->Value(), 1u);

  auto audit = db_->Audit();
  ASSERT_TRUE(audit.ok());
  EXPECT_TRUE(audit->clean);
  auto txn = db_->Begin();
  std::string got;
  ASSERT_OK(db_->Read(*txn, table_, 50, &got));
  EXPECT_EQ(got, std::string(100, 'a'));
  ASSERT_OK(db_->Commit(*txn));
}

TEST_F(AuditorTest, CallbackDrivenRecoveryRoundTrip) {
  std::atomic<bool> fired{false};
  BackgroundAuditor auditor(db_.get(), FastOptions(),
                            [&](const AuditReport&) { fired = true; });
  auditor.Start();
  auditor.WaitForFullSweep();
  // Exceed the correction budget so the callback-driven recovery path runs
  // rather than an in-place repair.
  FaultInjector inject(db_.get(), 10);
  DbPtr off = db_->image()->RecordOff(table_, 7);
  inject.WildWriteAt(off, "ZAP");
  inject.WildWriteAt(SameGroupSibling(off) + 8, "ZAP");
  auditor.WaitForFullSweep();
  auditor.Stop();
  ASSERT_TRUE(fired.load());

  // "Cause the database to crash" — from outside the callback here.
  ASSERT_OK(db_->CrashAndRecover());
  auto audit = db_->Audit();
  ASSERT_TRUE(audit.ok());
  EXPECT_TRUE(audit->clean);
  auto txn = db_->Begin();
  std::string got;
  ASSERT_OK(db_->Read(*txn, table_, 7, &got));
  EXPECT_EQ(got, std::string(100, 'a'));
  ASSERT_OK(db_->Commit(*txn));
}

TEST_F(AuditorTest, SweepsConcurrentWithUpdates) {
  // The §3.2 concurrency design: updaters join the region gate (protection
  // latch, shared) and fold under its fold bit (codeword latch); the
  // auditor blocks one gate at a time (protection latch, exclusive). Run
  // both at once and require zero false positives.
  std::atomic<bool> corrupt{false};
  BackgroundAuditor auditor(db_.get(), FastOptions(),
                            [&](const AuditReport&) { corrupt = true; });
  auditor.Start();
  for (int round = 0; round < 20; ++round) {
    auto txn = db_->Begin();
    for (int i = 0; i < 50; ++i) {
      ASSERT_OK(db_->Update(*txn, table_, i % 200, (i * 4) % 96, "busy"));
    }
    ASSERT_OK(db_->Commit(*txn));
  }
  auditor.WaitForFullSweep();
  auditor.Stop();
  EXPECT_FALSE(corrupt.load()) << "audit raced an update into a false alarm";
}

// ---------- Parallel audit slices ----------
// Both the scheme's sweep pool and the auditor's per-slice fan-out are
// pinned > 1 lane so the parallel path runs even on a single-CPU host.

class ParallelAuditorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    DatabaseOptions opts =
        SmallDbOptions(dir_.path(), ProtectionScheme::kDataCodeword, 512);
    opts.protection.sweep_threads = 4;
    auto db = Database::Open(opts);
    ASSERT_TRUE(db.ok());
    db_ = std::move(db).value();
    auto txn = db_->Begin();
    auto t = db_->CreateTable(*txn, "t", 100, 512);
    ASSERT_TRUE(t.ok());
    table_ = *t;
    for (int i = 0; i < 200; ++i) {
      ASSERT_TRUE(db_->Insert(*txn, table_, std::string(100, 'a')).ok());
    }
    ASSERT_OK(db_->Commit(*txn));
  }

  static BackgroundAuditor::Options ParallelOptions() {
    BackgroundAuditor::Options o;
    o.interval = std::chrono::milliseconds(1);
    o.slice_bytes = 256 << 10;
    o.threads = 4;
    return o;
  }

  TempDir dir_;
  std::unique_ptr<Database> db_;
  TableId table_ = 0;
};

TEST_F(ParallelAuditorTest, DetectsInjectedCorruptionAcrossLanes) {
  std::atomic<bool> fired{false};
  AuditReport captured;
  BackgroundAuditor auditor(db_.get(), ParallelOptions(),
                            [&](const AuditReport& report) {
                              captured = report;
                              fired = true;
                            });
  auditor.Start();
  auditor.WaitForFullSweep();

  // Over-budget damage (two regions, one group) so the parallel lanes
  // must report it rather than repair it away.
  FaultInjector inject(db_.get(), 21);
  DbPtr off = db_->image()->RecordOff(table_, 50);
  inject.WildWriteAt(off, "LANE CORRUPTION");
  inject.WildWriteAt(SameGroupSibling(off) + 32, "LANE CORRUPTION");

  auditor.WaitForFullSweep();
  auditor.Stop();
  ASSERT_TRUE(fired.load());
  EXPECT_FALSE(captured.clean);
  ASSERT_FALSE(captured.ranges.empty());
  // The callback contract is unchanged: ranges arrive ascending.
  for (size_t i = 1; i < captured.ranges.size(); ++i) {
    EXPECT_LT(captured.ranges[i - 1].off, captured.ranges[i].off);
  }
}

TEST_F(ParallelAuditorTest, ParallelSlicesStayCleanUnderUpdateLoad) {
  // The §3.2 latch argument, now per sweep lane: updaters join the region
  // gate, every lane audits one region at a time with its gate blocked —
  // concurrent prescribed updates must never turn into false alarms.
  std::atomic<bool> corrupt{false};
  BackgroundAuditor auditor(db_.get(), ParallelOptions(),
                            [&](const AuditReport&) { corrupt = true; });
  auditor.Start();
  for (int round = 0; round < 20; ++round) {
    auto txn = db_->Begin();
    for (int i = 0; i < 50; ++i) {
      ASSERT_OK(db_->Update(*txn, table_, i % 200, (i * 4) % 96, "busy"));
    }
    ASSERT_OK(db_->Commit(*txn));
  }
  auditor.WaitForFullSweep();
  auditor.Stop();
  EXPECT_FALSE(corrupt.load()) << "parallel audit raced an update";
}

// ---------- Scan API ----------

TEST(ScanTest, VisitsAllLiveRecordsInOrder) {
  TempDir dir;
  auto db = Database::Open(
      SmallDbOptions(dir.path(), ProtectionScheme::kReadPrecheck, 128));
  ASSERT_TRUE(db.ok());
  auto txn = (*db)->Begin();
  auto t = (*db)->CreateTable(*txn, "t", 128, 64);
  ASSERT_TRUE(t.ok());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(
        (*db)->Insert(*txn, *t, std::string(128, 'a' + i)).ok());
  }
  ASSERT_OK((*db)->Delete(*txn, *t, 3));
  ASSERT_OK((*db)->Delete(*txn, *t, 7));
  ASSERT_OK((*db)->Commit(*txn));

  txn = (*db)->Begin();
  std::vector<uint32_t> visited;
  ASSERT_OK((*db)->Scan(*txn, *t, [&](uint32_t slot, Slice record) {
    visited.push_back(slot);
    EXPECT_EQ(record.size(), 128u);
    EXPECT_EQ(record[0], 'a' + static_cast<char>(slot));
    return Status::OK();
  }));
  ASSERT_OK((*db)->Commit(*txn));
  EXPECT_EQ(visited, (std::vector<uint32_t>{0, 1, 2, 4, 5, 6, 8, 9}));
}

TEST(ScanTest, CallbackErrorStopsScan) {
  TempDir dir;
  auto db =
      Database::Open(SmallDbOptions(dir.path(), ProtectionScheme::kNone));
  ASSERT_TRUE(db.ok());
  auto txn = (*db)->Begin();
  auto t = (*db)->CreateTable(*txn, "t", 16, 16);
  ASSERT_TRUE(t.ok());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE((*db)->Insert(*txn, *t, std::string(16, 'x')).ok());
  }
  int seen = 0;
  Status s = (*db)->Scan(*txn, *t, [&](uint32_t, Slice) {
    return ++seen == 3 ? Status::Aborted("enough") : Status::OK();
  });
  EXPECT_EQ(s.code(), Status::Code::kAborted);
  EXPECT_EQ(seen, 3);
  ASSERT_OK((*db)->Commit(*txn));
}

TEST(ScanTest, PrecheckedScanRepairsCorruptRecordInPlace) {
  TempDir dir;
  auto db = Database::Open(
      SmallDbOptions(dir.path(), ProtectionScheme::kReadPrecheck, 128));
  ASSERT_TRUE(db.ok());
  auto txn = (*db)->Begin();
  auto t = (*db)->CreateTable(*txn, "t", 128, 16);
  ASSERT_TRUE(t.ok());
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE((*db)->Insert(*txn, *t, std::string(128, 's')).ok());
  }
  ASSERT_OK((*db)->Commit(*txn));

  FaultInjector inject(db->get(), 3);
  ASSERT_TRUE(
      inject.WildWriteAt((*db)->image()->RecordOff(*t, 2), "BAD").changed_bits);

  // The scan's precheck detects the lone corrupt region and repairs it
  // from its parity group in place: every record comes back intact.
  txn = (*db)->Begin();
  int seen = 0;
  Status s = (*db)->Scan(*txn, *t, [&](uint32_t, Slice data) {
    EXPECT_EQ(data.ToString(), std::string(128, 's'));
    ++seen;
    return Status::OK();
  });
  EXPECT_OK(s);
  EXPECT_EQ(seen, 4);
  EXPECT_GE((*db)->metrics()->counter("repair.success")->Value(), 1u);
  ASSERT_OK((*db)->Abort(*txn));
  auto audit = (*db)->Audit();
  ASSERT_TRUE(audit.ok());
  EXPECT_TRUE(audit->clean);
}

// ---------- Concurrent TPC-B extension ----------

TEST(ConcurrentTpcb, InvariantsHoldUnderFourWorkers) {
  TempDir dir;
  TpcbConfig cfg;
  cfg.accounts = 500;
  cfg.tellers = 50;
  cfg.branches = 5;
  cfg.ops_per_txn = 20;
  cfg.history_capacity = 6000;
  DatabaseOptions opts = SmallDbOptions(dir.path(),
                                        ProtectionScheme::kDataCodeword);
  opts.arena_size =
      std::max<uint64_t>(opts.arena_size, cfg.MinArenaSize(opts.page_size));
  auto db = Database::Open(opts);
  ASSERT_TRUE(db.ok());
  TpcbWorkload workload(db->get(), cfg);
  ASSERT_OK(workload.Setup());
  auto rate = workload.RunConcurrent(4, 2000);
  ASSERT_TRUE(rate.ok()) << rate.status().ToString();
  ASSERT_OK(workload.CheckConsistency());
  EXPECT_EQ((*db)->CountRecords(workload.history()), 2000u);
  auto audit = (*db)->Audit();
  ASSERT_TRUE(audit.ok());
  EXPECT_TRUE(audit->clean);
}

TEST(ConcurrentTpcb, SurvivesCrashAfterConcurrentRun) {
  TempDir dir;
  TpcbConfig cfg;
  cfg.accounts = 300;
  cfg.tellers = 30;
  cfg.branches = 3;
  cfg.ops_per_txn = 10;
  cfg.history_capacity = 3000;
  DatabaseOptions opts =
      SmallDbOptions(dir.path(), ProtectionScheme::kReadLog);
  opts.arena_size =
      std::max<uint64_t>(opts.arena_size, cfg.MinArenaSize(opts.page_size));
  auto db = Database::Open(opts);
  ASSERT_TRUE(db.ok());
  TpcbWorkload workload(db->get(), cfg);
  ASSERT_OK(workload.Setup());
  ASSERT_TRUE(workload.RunConcurrent(3, 900).ok());
  ASSERT_OK((*db)->CrashAndRecover());
  TpcbWorkload check(db->get(), cfg);
  ASSERT_OK(check.Attach());
  ASSERT_OK(check.CheckConsistency());
  EXPECT_EQ((*db)->CountRecords(check.history()), 900u);
}

}  // namespace
}  // namespace cwdb
