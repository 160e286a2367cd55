// Tests of the protection schemes themselves (paper §3): codeword
// maintenance invariants under the prescribed interface, detection of
// injected direct physical corruption by audits, prevention of reads of
// corrupt data by Read Prechecking, prevention of wild writes by Hardware
// Protection, and the documented probabilistic limits of XOR codewords.

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <thread>

#include "common/parallel.h"
#include "common/random.h"
#include "core/auditor.h"
#include "core/database.h"
#include "faultinject/fault_injector.h"
#include "protect/codeword_protection.h"
#include "protect/codeword_table.h"
#include "tests/test_util.h"

namespace cwdb {
namespace {

// ---------- CodewordTable unit tests ----------

TEST(CodewordTable, RegionMath) {
  CodewordTable t(4096, 64);
  EXPECT_EQ(t.region_count(), 64u);
  EXPECT_EQ(t.RegionOf(0), 0u);
  EXPECT_EQ(t.RegionOf(63), 0u);
  EXPECT_EQ(t.RegionOf(64), 1u);
  EXPECT_EQ(t.RegionStart(3), 192u);
  EXPECT_EQ(t.space_overhead_bytes(), 64u * sizeof(codeword_t));
}

TEST(CodewordTable, ApplyDeltaSpanningRegions) {
  std::vector<uint8_t> arena(1024, 0);
  CodewordTable t(1024, 64);
  t.RebuildAll(arena.data());

  // An update spanning the region-0/region-1 boundary.
  std::vector<uint8_t> before(arena.begin() + 48, arena.begin() + 48 + 32);
  std::vector<uint8_t> after(32, 0x5A);
  std::memcpy(arena.data() + 48, after.data(), 32);
  t.ApplyDelta(48, before.data(), after.data(), 32);

  EXPECT_TRUE(t.Verify(arena.data(), 0));
  EXPECT_TRUE(t.Verify(arena.data(), 1));
  for (uint64_t r = 2; r < t.region_count(); ++r) {
    EXPECT_TRUE(t.Verify(arena.data(), r));
  }
}

TEST(CodewordTable, VerifyFailsAfterOutOfBandWrite) {
  std::vector<uint8_t> arena(1024, 0);
  CodewordTable t(1024, 64);
  t.RebuildAll(arena.data());
  arena[100] = 0xFF;  // Wild write, no ApplyDelta.
  EXPECT_FALSE(t.Verify(arena.data(), t.RegionOf(100)));
  EXPECT_TRUE(t.Verify(arena.data(), 0));
}

// ---------- Scheme behaviour over a real database ----------

struct SchemeCase {
  ProtectionScheme scheme;
  uint32_t region_size;
};

std::string SchemeCaseName(const ::testing::TestParamInfo<SchemeCase>& info) {
  return std::string(info.param.scheme == ProtectionScheme::kDataCodeword
                         ? "DataCW"
                     : info.param.scheme == ProtectionScheme::kReadPrecheck
                         ? "Precheck"
                     : info.param.scheme == ProtectionScheme::kReadLog
                         ? "ReadLog"
                         : "CWReadLog") +
         "_" + std::to_string(info.param.region_size);
}

class CodewordSchemeTest : public ::testing::TestWithParam<SchemeCase> {
 protected:
  void Open() {
    auto db = Database::Open(
        SmallDbOptions(dir_.path(), GetParam().scheme, GetParam().region_size));
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    db_ = std::move(db).value();
  }

  // Creates a table with one committed record and returns its image offset.
  DbPtr SetupOneRecord(TableId* table, uint32_t* slot) {
    auto txn = db_->Begin();
    auto t = db_->CreateTable(*txn, "t", 128, 64);
    EXPECT_TRUE(t.ok());
    auto rid = db_->Insert(*txn, *t, std::string(128, 'v'));
    EXPECT_TRUE(rid.ok());
    EXPECT_TRUE(db_->Commit(*txn).ok());
    *table = *t;
    *slot = rid->slot;
    return db_->image()->RecordOff(*t, rid->slot);
  }

  TempDir dir_;
  std::unique_ptr<Database> db_;
};

TEST_P(CodewordSchemeTest, CleanDatabasePassesAudit) {
  Open();
  TableId table;
  uint32_t slot;
  SetupOneRecord(&table, &slot);
  auto report = db_->Audit();
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->clean);
  EXPECT_EQ(report->ranges.size(), 0u);
}

TEST_P(CodewordSchemeTest, AuditStaysCleanUnderChurn) {
  Open();
  auto txn = db_->Begin();
  auto t = db_->CreateTable(*txn, "churn", 64, 256);
  ASSERT_TRUE(t.ok());
  Random rng(5);
  std::vector<uint32_t> live;
  for (int i = 0; i < 400; ++i) {
    if (live.empty() || rng.OneIn(3)) {
      auto rid = db_->Insert(*txn, *t, std::string(64, 'a' + i % 26));
      if (rid.ok()) live.push_back(rid->slot);
    } else if (rng.OneIn(2)) {
      uint32_t s = live[rng.Uniform(live.size())];
      ASSERT_OK(db_->Update(*txn, *t, s, rng.Uniform(56), "1234"));
    } else {
      size_t idx = rng.Uniform(live.size());
      ASSERT_OK(db_->Delete(*txn, *t, live[idx]));
      live.erase(live.begin() + idx);
    }
    if (i % 100 == 99) {
      ASSERT_OK(db_->Commit(*txn));
      txn = db_->Begin();
    }
  }
  ASSERT_OK(db_->Commit(*txn));
  auto report = db_->Audit();
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->clean);
}

TEST_P(CodewordSchemeTest, AuditStaysCleanAfterAborts) {
  Open();
  TableId table;
  uint32_t slot;
  SetupOneRecord(&table, &slot);
  auto txn = db_->Begin();
  ASSERT_OK(db_->Update(*txn, table, slot, 0, "garbage!"));
  ASSERT_TRUE(db_->Insert(*txn, table, std::string(128, 'x')).ok());
  ASSERT_OK(db_->Abort(*txn));
  auto report = db_->Audit();
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->clean);
}

TEST_P(CodewordSchemeTest, WildWriteDetectedByAudit) {
  Open();
  TableId table;
  uint32_t slot;
  DbPtr off = SetupOneRecord(&table, &slot);

  FaultInjector inject(db_.get(), 99);
  auto outcome = inject.WildWriteAt(off + 10, "CORRUPTED");
  ASSERT_FALSE(outcome.prevented);
  ASSERT_TRUE(outcome.changed_bits);

  auto report = db_->Audit();
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->clean);
  ASSERT_GE(report->ranges.size(), 1u);
  // The failing region covers the corrupted bytes.
  bool covered = false;
  for (const auto& r : report->ranges) {
    if (r.off <= off + 10 && off + 10 < r.off + r.len) covered = true;
  }
  EXPECT_TRUE(covered);
}

TEST_P(CodewordSchemeTest, SingleBitFlipDetected) {
  Open();
  TableId table;
  uint32_t slot;
  DbPtr off = SetupOneRecord(&table, &slot);
  uint8_t byte = db_->UnsafeRawBase()[off];
  byte ^= 0x40;
  FaultInjector inject(db_.get(), 1);
  inject.WildWriteAt(off, Slice(reinterpret_cast<const char*>(&byte), 1));
  auto report = db_->Audit();
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->clean);
}

TEST_P(CodewordSchemeTest, CheckpointCertificationCatchesCorruption) {
  Open();
  TableId table;
  uint32_t slot;
  DbPtr off = SetupOneRecord(&table, &slot);
  FaultInjector inject(db_.get(), 7);
  inject.WildWriteAt(off, "BAD");
  Status s = db_->Checkpoint();
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
}

INSTANTIATE_TEST_SUITE_P(
    Regions, CodewordSchemeTest,
    ::testing::Values(SchemeCase{ProtectionScheme::kDataCodeword, 64},
                      SchemeCase{ProtectionScheme::kDataCodeword, 512},
                      SchemeCase{ProtectionScheme::kDataCodeword, 8192},
                      SchemeCase{ProtectionScheme::kReadPrecheck, 64},
                      SchemeCase{ProtectionScheme::kReadPrecheck, 512},
                      SchemeCase{ProtectionScheme::kReadLog, 512},
                      SchemeCase{ProtectionScheme::kCodewordReadLog, 512}),
    SchemeCaseName);

// ---------- Concurrent folds ----------
// Four writers update distinct 100-byte records packed so that neighbours
// share regions and parity groups; a two-lane background auditor sweeps
// meanwhile and, under Precheck, a fifth thread reads the same records.
// Every verify must land outside every open update window: no audit
// failure, no repair attempt (a false alarm would trigger one), no refused
// read. Afterwards a lone wild write must still be repaired in place.

class ConcurrentFoldsTest : public ::testing::TestWithParam<SchemeCase> {};

TEST_P(ConcurrentFoldsTest, WritersAuditorAndReaderShareGroups) {
  constexpr int kWriters = 4;
  constexpr uint32_t kPerWriter = 16;
  constexpr uint32_t kRecords = kWriters * kPerWriter;
  constexpr uint32_t kRecordSize = 100;
  constexpr int kRounds = 40;

  TempDir dir;
  DatabaseOptions opts =
      SmallDbOptions(dir.path(), GetParam().scheme, GetParam().region_size);
  opts.protection.sweep_threads = 2;
  auto dbr = Database::Open(opts);
  ASSERT_OK(dbr.status());
  Database* db = dbr->get();
  auto txn = db->Begin();
  auto table = db->CreateTable(*txn, "t", kRecordSize, kRecords);
  ASSERT_OK(table.status());
  std::vector<std::string> expected(kRecords);
  for (uint32_t i = 0; i < kRecords; ++i) {
    expected[i] = std::string(kRecordSize, static_cast<char>('a' + i % 26));
    ASSERT_OK(db->Insert(*txn, *table, expected[i]).status());
  }
  ASSERT_OK(db->Commit(*txn));

  std::atomic<int> alarms{0};
  BackgroundAuditor::Options ao;
  ao.interval = std::chrono::milliseconds(1);
  ao.slice_bytes = 256 << 10;
  ao.threads = 2;
  BackgroundAuditor auditor(db, ao, [&](const AuditReport&) { ++alarms; });
  auditor.Start();

  std::atomic<int> failed_updates{0};
  std::atomic<bool> writers_done{false};
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    // Writer w owns slots w, w + 4, ...: every neighbour belongs to
    // another writer.
    writers.emplace_back([&, w] {
      for (int round = 0; round < kRounds; ++round) {
        auto t = db->Begin();
        for (uint32_t k = 0; k < kPerWriter; ++k) {
          const uint32_t slot = w + kWriters * k;
          const uint32_t field = (round * 13 + k * 5) % (kRecordSize - 8);
          char payload[8];
          for (int b = 0; b < 8; ++b) {
            payload[b] = static_cast<char>(0x21 + (round * 7 + k + b) % 90);
          }
          if (db->Update(*t, *table, slot, field, Slice(payload, 8)).ok()) {
            expected[slot].replace(field, 8, payload, 8);
          } else {
            ++failed_updates;
          }
        }
        if (!db->Commit(*t).ok()) ++failed_updates;
      }
    });
  }
  std::atomic<int> refused{0};
  std::thread reader;
  if (GetParam().scheme == ProtectionScheme::kReadPrecheck) {
    // One record per transaction: the reader never holds a lock while it
    // waits for one, so it cannot deadlock with the writers.
    reader = std::thread([&] {
      for (uint32_t i = 0; !writers_done.load(); i = (i + 1) % kRecords) {
        auto t = db->Begin();
        std::string got;
        if (db->Read(*t, *table, i, &got).IsCorruption()) ++refused;
        (void)db->Commit(*t);
      }
    });
  }
  for (auto& th : writers) th.join();
  writers_done = true;
  if (reader.joinable()) reader.join();
  auditor.WaitForFullSweep();

  EXPECT_EQ(failed_updates.load(), 0);
  EXPECT_EQ(alarms.load(), 0);
  EXPECT_EQ(refused.load(), 0);
  EXPECT_EQ(db->protection()->stats().audit_failures, 0u);
  EXPECT_EQ(db->metrics()->counter("repair.attempts")->Value(), 0u);
  auto report = db->Audit();
  ASSERT_OK(report.status());
  EXPECT_TRUE(report->clean);

  // A lone wild write is still found by the sweep and repaired in place.
  FaultInjector inject(db, 17);
  ASSERT_TRUE(inject
                  .WildWriteAt(db->image()->RecordOff(*table, 21) + 3,
                               "wild@r1te")
                  .changed_bits);
  auditor.WaitForFullSweep();
  auditor.WaitForFullSweep();
  auditor.Stop();
  EXPECT_EQ(alarms.load(), 0);
  EXPECT_GE(db->metrics()->counter("repair.success")->Value(), 1u);
  report = db->Audit();
  ASSERT_OK(report.status());
  EXPECT_TRUE(report->clean);
  txn = db->Begin();
  for (uint32_t i = 0; i < kRecords; ++i) {
    std::string got;
    ASSERT_OK(db->Read(*txn, *table, i, &got));
    EXPECT_EQ(got, expected[i]) << "slot " << i;
  }
  ASSERT_OK(db->Commit(*txn));
}

INSTANTIATE_TEST_SUITE_P(
    Schemes, ConcurrentFoldsTest,
    ::testing::Values(SchemeCase{ProtectionScheme::kDataCodeword, 64},
                      SchemeCase{ProtectionScheme::kDataCodeword, 512},
                      SchemeCase{ProtectionScheme::kReadPrecheck, 64},
                      SchemeCase{ProtectionScheme::kReadPrecheck, 512},
                      SchemeCase{ProtectionScheme::kReadLog, 64},
                      SchemeCase{ProtectionScheme::kReadLog, 512},
                      SchemeCase{ProtectionScheme::kCodewordReadLog, 64},
                      SchemeCase{ProtectionScheme::kCodewordReadLog, 512}),
    SchemeCaseName);

// ---------- Read Prechecking specifics ----------

TEST(ReadPrecheck, CorruptReadIsRefused) {
  TempDir dir;
  DatabaseOptions opts =
      SmallDbOptions(dir.path(), ProtectionScheme::kReadPrecheck, 128);
  auto db = Database::Open(opts);
  ASSERT_TRUE(db.ok());
  auto txn = (*db)->Begin();
  auto t = (*db)->CreateTable(*txn, "t", 128, 16);
  ASSERT_TRUE(t.ok());
  auto rid = (*db)->Insert(*txn, *t, std::string(128, 'g'));
  ASSERT_TRUE(rid.ok());
  ASSERT_OK((*db)->Commit(*txn));

  // A lone corrupt region would be repaired in place by the parity tier
  // and the read would succeed; corrupt a *second* region in the same
  // parity group so the damage exceeds the correction budget and the
  // precheck must refuse the read. The sibling is picked two regions away
  // so the fresh insert below (slot 1, one region over at this 128-byte
  // record size) stays clean.
  DbPtr off = (*db)->image()->RecordOff(*t, rid->slot);
  uint64_t r = off / 128;
  uint64_t sib = (r % 64 <= 61) ? r + 2 : r - 2;
  FaultInjector inject(db->get(), 3);
  inject.WildWriteAt(off + 4, "XX");
  ASSERT_TRUE(inject.WildWriteAt(sib * 128 + 4, "XX").changed_bits);

  txn = (*db)->Begin();
  std::string got;
  Status s = (*db)->Read(*txn, *t, rid->slot, &got);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
  ASSERT_OK((*db)->Abort(*txn));

  // Reads of *other* records (different regions) still succeed.
  txn = (*db)->Begin();
  auto rid2 = (*db)->Insert(*txn, *t, std::string(128, 'h'));
  ASSERT_TRUE(rid2.ok());
  ASSERT_OK((*db)->Read(*txn, *t, rid2->slot, &got));
  ASSERT_OK((*db)->Commit(*txn));
}

TEST(ReadPrecheck, CacheRecoveryRepairsRegionInPlace) {
  TempDir dir;
  DatabaseOptions opts =
      SmallDbOptions(dir.path(), ProtectionScheme::kReadPrecheck, 128);
  auto db = Database::Open(opts);
  ASSERT_TRUE(db.ok());
  auto txn = (*db)->Begin();
  auto t = (*db)->CreateTable(*txn, "t", 128, 16);
  ASSERT_TRUE(t.ok());
  auto rid = (*db)->Insert(*txn, *t, std::string(128, 'o'));
  ASSERT_TRUE(rid.ok());
  ASSERT_OK((*db)->Commit(*txn));
  ASSERT_OK((*db)->Checkpoint());

  // Post-checkpoint committed update, then corruption.
  txn = (*db)->Begin();
  ASSERT_OK((*db)->Update(*txn, *t, rid->slot, 0, "NEWVAL"));
  ASSERT_OK((*db)->Commit(*txn));

  // Two corrupt regions in one parity group: past the in-place repair
  // budget, so the read is refused and the cache-recovery path below is
  // what heals the image.
  DbPtr off = (*db)->image()->RecordOff(*t, rid->slot);
  uint64_t r = off / 128;
  uint64_t sib = (r % 64 <= 61) ? r + 2 : r - 2;
  FaultInjector inject(db->get(), 4);
  inject.WildWriteAt(off + 2, "??");
  ASSERT_TRUE(inject.WildWriteAt(sib * 128 + 2, "??").changed_bits);

  txn = (*db)->Begin();
  std::string got;
  Status s = (*db)->Read(*txn, *t, rid->slot, &got);
  ASSERT_TRUE(s.IsCorruption());
  ASSERT_OK((*db)->Abort(*txn));

  // Repair the region from checkpoint + redo log (cache-recovery model).
  auto report = (*db)->Audit();
  ASSERT_TRUE(report.ok());
  ASSERT_FALSE(report->clean);
  ASSERT_OK((*db)->CacheRecover(report->ranges));

  // The read now succeeds and sees the *post-checkpoint committed* value.
  txn = (*db)->Begin();
  ASSERT_OK((*db)->Read(*txn, *t, rid->slot, &got));
  EXPECT_EQ(got.substr(0, 6), "NEWVAL");
  ASSERT_OK((*db)->Commit(*txn));
  auto report2 = (*db)->Audit();
  ASSERT_TRUE(report2.ok());
  EXPECT_TRUE(report2->clean);
}

// ---------- Hardware Protection specifics ----------

TEST(HardwareProtection, WildWriteIsPrevented) {
  TempDir dir;
  auto db =
      Database::Open(SmallDbOptions(dir.path(), ProtectionScheme::kHardware));
  ASSERT_TRUE(db.ok());
  auto txn = (*db)->Begin();
  auto t = (*db)->CreateTable(*txn, "t", 64, 16);
  ASSERT_TRUE(t.ok());
  auto rid = (*db)->Insert(*txn, *t, std::string(64, 'p'));
  ASSERT_TRUE(rid.ok());
  ASSERT_OK((*db)->Commit(*txn));

  DbPtr off = (*db)->image()->RecordOff(*t, rid->slot);
  FaultInjector inject(db->get(), 5);
  auto outcome = inject.WildWriteAt(off, "EVIL");
  EXPECT_TRUE(outcome.prevented);
  EXPECT_FALSE(outcome.changed_bits);

  // Data unharmed.
  txn = (*db)->Begin();
  std::string got;
  ASSERT_OK((*db)->Read(*txn, *t, rid->slot, &got));
  EXPECT_EQ(got, std::string(64, 'p'));
  ASSERT_OK((*db)->Commit(*txn));
}

TEST(HardwareProtection, PrescribedUpdatesStillWork) {
  TempDir dir;
  auto db =
      Database::Open(SmallDbOptions(dir.path(), ProtectionScheme::kHardware));
  ASSERT_TRUE(db.ok());
  auto txn = (*db)->Begin();
  auto t = (*db)->CreateTable(*txn, "t", 64, 16);
  ASSERT_TRUE(t.ok());
  auto rid = (*db)->Insert(*txn, *t, std::string(64, '1'));
  ASSERT_TRUE(rid.ok());
  ASSERT_OK((*db)->Update(*txn, *t, rid->slot, 0, "updated."));
  ASSERT_OK((*db)->Commit(*txn));
  EXPECT_GT((*db)->GetStats().protection.mprotect_calls, 0u);
}

TEST(HardwareProtection, ExposureWindowAllowsWildWrite) {
  // The known weakness of the expose-page model (§4, Ng & Chen): while a
  // page is exposed for a legitimate update, a wild write to the *same
  // page* is NOT prevented.
  TempDir dir;
  auto db =
      Database::Open(SmallDbOptions(dir.path(), ProtectionScheme::kHardware));
  ASSERT_TRUE(db.ok());
  auto txn = (*db)->Begin();
  auto t = (*db)->CreateTable(*txn, "t", 64, 16);
  ASSERT_TRUE(t.ok());
  auto rid = (*db)->Insert(*txn, *t, std::string(64, 'w'));
  ASSERT_TRUE(rid.ok());
  ASSERT_OK((*db)->Commit(*txn));

  DbPtr off = (*db)->image()->RecordOff(*t, rid->slot);
  txn = (*db)->Begin();
  // Open a raw update window on the record's page...
  ASSERT_OK((*db)->txns()->BeginOp(*txn, OpCode::kUpdate, kMaxTables,
                                   kInvalidSlot, std::nullopt, off, 8));
  auto ptr = (*txn)->BeginUpdate(off, 8);
  ASSERT_TRUE(ptr.ok());
  // ...and wild-write within the exposed page from "another component".
  FaultInjector inject(db->get(), 6);
  auto outcome = inject.WildWriteAt(off + 32, "OOPS");
  EXPECT_FALSE(outcome.prevented);
  EXPECT_TRUE(outcome.changed_bits);
  std::memcpy(*ptr, "LEGIT!!!", 8);
  ASSERT_OK((*txn)->EndUpdate());
  LogicalUndo undo;
  undo.code = UndoCode::kWriteRaw;
  undo.raw_off = off;
  undo.payload = std::string(8, 'w');
  ASSERT_OK((*db)->txns()->CommitOp(*txn, undo));
  ASSERT_OK((*db)->Commit(*txn));
}

// ---------- Documented limitation: XOR cancellation ----------

TEST(CodewordLimits, CancellingWildWritesEscapeDetection) {
  // Two wild writes that flip the same bits in two different words of the
  // same region cancel in the XOR parity — the paper's "with high
  // probability" caveat. This documents (and pins) the limitation.
  TempDir dir;
  auto db = Database::Open(
      SmallDbOptions(dir.path(), ProtectionScheme::kDataCodeword, 512));
  ASSERT_TRUE(db.ok());
  auto txn = (*db)->Begin();
  auto t = (*db)->CreateTable(*txn, "t", 128, 8);
  ASSERT_TRUE(t.ok());
  auto rid = (*db)->Insert(*txn, *t, std::string(128, 'c'));
  ASSERT_TRUE(rid.ok());
  ASSERT_OK((*db)->Commit(*txn));

  DbPtr off = (*db)->image()->RecordOff(*t, rid->slot);
  // Same 4-byte garbage XORed into two word-aligned spots of one region.
  FaultInjector inject(db->get(), 8);
  uint8_t a[4], b[4];
  std::memcpy(a, (*db)->UnsafeRawBase() + off, 4);
  std::memcpy(b, (*db)->UnsafeRawBase() + off + 8, 4);
  for (int i = 0; i < 4; ++i) {
    a[i] ^= 0x55;
    b[i] ^= 0x55;
  }
  inject.WildWriteAt(off, Slice(reinterpret_cast<const char*>(a), 4));
  inject.WildWriteAt(off + 8, Slice(reinterpret_cast<const char*>(b), 4));

  auto report = (*db)->Audit();
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->clean) << "XOR parity cancels identical paired flips";
}

// ---------- Stats and space overhead ----------

TEST(ProtectionStats, SpaceOverheadMatchesRegionSize) {
  TempDir dir;
  for (uint32_t region : {64u, 512u, 8192u}) {
    DatabaseOptions opts = SmallDbOptions(
        dir.path() + "/r" + std::to_string(region),
        ProtectionScheme::kDataCodeword, region);
    auto db = Database::Open(opts);
    ASSERT_TRUE(db.ok());
    // One codeword per region, plus one region-sized XOR parity column
    // per parity group (the error-correcting repair tier).
    uint64_t regions = (4ull << 20) / region;
    uint64_t group = opts.protection.parity_group_regions;
    uint64_t expected =
        regions * sizeof(codeword_t) + (regions + group - 1) / group * region;
    EXPECT_EQ((*db)->GetStats().protection_space_overhead_bytes, expected);
  }
}

TEST(ProtectionStats, PrecheckCountsReads) {
  TempDir dir;
  auto db = Database::Open(
      SmallDbOptions(dir.path(), ProtectionScheme::kReadPrecheck, 512));
  ASSERT_TRUE(db.ok());
  auto txn = (*db)->Begin();
  auto t = (*db)->CreateTable(*txn, "t", 64, 16);
  ASSERT_TRUE(t.ok());
  auto rid = (*db)->Insert(*txn, *t, std::string(64, 's'));
  ASSERT_TRUE(rid.ok());
  uint64_t before = (*db)->GetStats().protection.prechecks;
  std::string got;
  ASSERT_OK((*db)->Read(*txn, *t, rid->slot, &got));
  EXPECT_GT((*db)->GetStats().protection.prechecks, before);
  ASSERT_OK((*db)->Commit(*txn));
}

// ---------- Parallel audit / rebuild sweeps ----------
// sweep_threads is pinned > 1 so the pool path runs even on a single-CPU
// host (where the hardware-concurrency default resolves to one lane).

TEST(ParallelSweep, RebuildAllMatchesSequential) {
  Random rng(11);
  std::vector<uint8_t> arena(64 * 1024);
  for (auto& b : arena) b = static_cast<uint8_t>(rng.Next32());

  CodewordTable sequential(arena.size(), 128);
  sequential.RebuildAll(arena.data());
  CodewordTable parallel(arena.size(), 128);
  ThreadPool pool(4);
  parallel.RebuildAll(arena.data(), &pool);

  for (uint64_t r = 0; r < sequential.region_count(); ++r) {
    ASSERT_EQ(parallel.Get(r), sequential.Get(r)) << "region " << r;
  }
}

TEST(ParallelSweep, AuditAllReportsCorruptRegionsInAscendingOrder) {
  auto image = DbImage::Create(1 << 20, 4096);
  ASSERT_TRUE(image.ok());
  Random rng(12);
  for (uint64_t i = 0; i < (*image)->size(); ++i) {
    *(*image)->At(i) = static_cast<uint8_t>(rng.Next32());
  }
  ProtectionOptions popts;
  popts.scheme = ProtectionScheme::kDataCodeword;
  popts.region_size = 512;
  popts.sweep_threads = 4;
  auto prot = CodewordProtection::Create(popts, image->get());
  ASSERT_TRUE(prot.ok());
  ASSERT_OK((*prot)->AuditAll(nullptr));

  // Corrupt scattered regions out-of-band, including both ends of the
  // image so every parallel lane's span holds at least one hit.
  const uint64_t kCorruptRegions[] = {0, 7, 511, 512, 1024, 2047};
  for (uint64_t r : kCorruptRegions) {
    *(*image)->At(r * 512 + 13) ^= 0x40;
  }
  std::vector<CorruptRange> corrupt;
  Status s = (*prot)->AuditAll(&corrupt);
  EXPECT_TRUE(s.IsCorruption());
  ASSERT_EQ(corrupt.size(), std::size(kCorruptRegions));
  for (size_t i = 0; i < corrupt.size(); ++i) {
    EXPECT_EQ(corrupt[i].off, kCorruptRegions[i] * 512);
    EXPECT_EQ(corrupt[i].len, 512u);
  }
  // Stats totals match the sequential contract: every region audited per
  // sweep, one failure per corrupt region.
  const ProtectionStats& stats = (*prot)->stats();
  EXPECT_EQ(stats.regions_audited, 2 * (1u << 20) / 512);
  EXPECT_EQ(stats.audit_failures, std::size(kCorruptRegions));
}

TEST(ParallelSweep, AuditRangeParallelMatchesSequentialAuditRange) {
  auto image = DbImage::Create(512 * 1024, 4096);
  ASSERT_TRUE(image.ok());
  Random rng(13);
  for (uint64_t i = 0; i < (*image)->size(); ++i) {
    *(*image)->At(i) = static_cast<uint8_t>(rng.Next32());
  }
  ProtectionOptions popts;
  popts.scheme = ProtectionScheme::kDataCodeword;
  popts.region_size = 256;
  popts.sweep_threads = 3;
  auto prot = CodewordProtection::Create(popts, image->get());
  ASSERT_TRUE(prot.ok());
  *(*image)->At(100 * 256 + 5) ^= 1;
  *(*image)->At(900 * 256 + 5) ^= 1;

  std::vector<CorruptRange> seq, par;
  Status s1 = (*prot)->AuditRange(0, (*image)->size(), &seq);
  Status s2 = (*prot)->AuditRangeParallel(0, (*image)->size(), 3, &par);
  EXPECT_EQ(s1.IsCorruption(), s2.IsCorruption());
  ASSERT_EQ(par.size(), seq.size());
  for (size_t i = 0; i < seq.size(); ++i) {
    EXPECT_EQ(par[i].off, seq[i].off);
    EXPECT_EQ(par[i].len, seq[i].len);
  }
}

TEST(ParallelSweep, ResetFromImageRepairsUnderParallelSweep) {
  auto image = DbImage::Create(256 * 1024, 4096);
  ASSERT_TRUE(image.ok());
  ProtectionOptions popts;
  popts.scheme = ProtectionScheme::kDataCodeword;
  popts.region_size = 128;
  popts.sweep_threads = 4;
  auto prot = CodewordProtection::Create(popts, image->get());
  ASSERT_TRUE(prot.ok());
  // Out-of-band writes everywhere, then a parallel rebuild: the table must
  // describe the new image exactly.
  Random rng(14);
  for (uint64_t i = 0; i < (*image)->size(); i += 37) {
    *(*image)->At(i) = static_cast<uint8_t>(rng.Next32());
  }
  ASSERT_OK((*prot)->ResetFromImage());
  EXPECT_OK((*prot)->AuditAll(nullptr));
}

}  // namespace
}  // namespace cwdb
