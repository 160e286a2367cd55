// Checkpointer tests: ping-pong alternation, anchor atomicity, ATT
// serialization round trips, update-consistency of checkpoints taken with
// transactions in flight, certification audits, the checkpoint images
// mirroring the arena after every load path, the meta decoder's rejection
// paths, and checkpoints racing a writer.

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <thread>
#include <vector>

#include "ckpt/archive.h"
#include "ckpt/att_codec.h"
#include "ckpt/checkpoint.h"
#include "common/coding.h"
#include "common/crc32.h"
#include "common/file_util.h"
#include "core/database.h"
#include "faultinject/crash_harness.h"
#include "tests/test_util.h"

namespace cwdb {
namespace {

class CkptTest : public ::testing::Test {
 protected:
  void Open(ProtectionScheme scheme = ProtectionScheme::kDataCodeword) {
    auto db = Database::Open(SmallDbOptions(dir_.path(), scheme));
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    db_ = std::move(db).value();
  }
  /// Drops the database without Close() (what a crash leaves) and opens
  /// the directory again, which loads the active checkpoint.
  void Reopen() {
    db_.reset();
    Open();
  }
  /// Creates table "t" with 64 records of 64 bytes, committed.
  TableId Populate() {
    auto txn = db_->Begin();
    auto t = db_->CreateTable(*txn, "t", 64, 64);
    EXPECT_TRUE(t.ok());
    for (int i = 0; i < 64; ++i) {
      EXPECT_TRUE(db_->Insert(*txn, *t, std::string(64, 'a' + i % 26)).ok());
    }
    EXPECT_OK(db_->Commit(*txn));
    return *t;
  }
  /// One committed transaction writing `value` over record `slot`.
  void CommitUpdate(TableId t, uint32_t slot, const std::string& value) {
    auto txn = db_->Begin();
    EXPECT_OK(db_->Update(*txn, t, slot, 0, value));
    EXPECT_OK(db_->Commit(*txn));
  }
  int ActiveImage() {
    auto anchor = db_->checkpointer()->ReadAnchor();
    EXPECT_TRUE(anchor.ok());
    return anchor.ok() ? *anchor : 0;
  }
  DbFiles files() const { return DbFiles(dir_.path()); }

  TempDir dir_;
  std::unique_ptr<Database> db_;
};

TEST_F(CkptTest, FreshDatabaseAnchorsToA) {
  Open();
  auto anchor = db_->checkpointer()->ReadAnchor();
  ASSERT_TRUE(anchor.ok());
  EXPECT_EQ(*anchor, 0);
  EXPECT_TRUE(FileExists(dir_.path() + "/ckpt_A.img"));
  EXPECT_TRUE(FileExists(dir_.path() + "/ckpt_B.img"));
}

TEST_F(CkptTest, CheckpointsAlternate) {
  Open();
  ASSERT_OK(db_->Checkpoint());
  auto anchor = db_->checkpointer()->ReadAnchor();
  ASSERT_TRUE(anchor.ok());
  EXPECT_EQ(*anchor, 1);  // A (initial) -> B.
  ASSERT_OK(db_->Checkpoint());
  anchor = db_->checkpointer()->ReadAnchor();
  ASSERT_TRUE(anchor.ok());
  EXPECT_EQ(*anchor, 0);  // -> A.
  // Initial full checkpoint + the two explicit ones.
  EXPECT_EQ(db_->checkpointer()->checkpoints_taken(), 3u);
}

TEST_F(CkptTest, DeltaCheckpointWritesOnlyDirtyPages) {
  Open();
  // First two checkpoints write everything (both images start all-dirty).
  ASSERT_OK(db_->Checkpoint());
  ASSERT_OK(db_->Checkpoint());
  // No writes since: next checkpoint writes nothing.
  ASSERT_OK(db_->Checkpoint());
  EXPECT_EQ(db_->checkpointer()->pages_written_last(), 0u);

  // One small committed update dirties a handful of pages.
  auto txn = db_->Begin();
  auto t = db_->CreateTable(*txn, "t", 64, 64);
  ASSERT_TRUE(t.ok());
  ASSERT_TRUE(db_->Insert(*txn, *t, std::string(64, 'd')).ok());
  ASSERT_OK(db_->Commit(*txn));
  ASSERT_OK(db_->Checkpoint());
  uint64_t pages = db_->checkpointer()->pages_written_last();
  EXPECT_GT(pages, 0u);
  EXPECT_LT(pages, 16u);  // Far from the full ~1000-page arena.
}

TEST_F(CkptTest, PingPongCoversBothWindows) {
  // A page dirtied once must eventually be written to BOTH images (it is
  // dirty relative to each until that image absorbs it).
  Open();
  auto txn = db_->Begin();
  auto t = db_->CreateTable(*txn, "t", 64, 64);
  ASSERT_TRUE(t.ok());
  ASSERT_TRUE(db_->Insert(*txn, *t, std::string(64, 'p')).ok());
  ASSERT_OK(db_->Commit(*txn));

  ASSERT_OK(db_->Checkpoint());  // Writes to B.
  uint64_t to_b = db_->checkpointer()->pages_written_last();
  ASSERT_OK(db_->Checkpoint());  // Must also write the same data to A.
  uint64_t to_a = db_->checkpointer()->pages_written_last();
  EXPECT_GT(to_b, 0u);
  EXPECT_GT(to_a, 0u);

  // Crash: recovery must find complete data whichever image is active.
  ASSERT_OK(db_->CrashAndRecover());
  EXPECT_EQ(db_->CountRecords(*db_->FindTable("t")), 1u);
}

TEST_F(CkptTest, CheckpointWithOpenTransactionIsUpdateConsistent) {
  Open();
  auto txn = db_->Begin();
  auto t = db_->CreateTable(*txn, "t", 64, 64);
  ASSERT_TRUE(t.ok());
  auto rid = db_->Insert(*txn, *t, std::string(64, 'c'));
  ASSERT_TRUE(rid.ok());
  ASSERT_OK(db_->Commit(*txn));

  // Open transaction updates the record, then a checkpoint runs, then the
  // transaction never commits (crash). The checkpointed ATT's undo log
  // must roll the update back.
  txn = db_->Begin();
  ASSERT_OK(db_->Update(*txn, *t, rid->slot, 0, "UNCOMMITTED"));
  ASSERT_OK(db_->Checkpoint());
  ASSERT_OK(db_->CrashAndRecover());

  auto t2 = db_->FindTable("t");
  ASSERT_TRUE(t2.ok());
  auto txn2 = db_->Begin();
  std::string got;
  ASSERT_OK(db_->Read(*txn2, *t2, rid->slot, &got));
  EXPECT_EQ(got, std::string(64, 'c'));
  ASSERT_OK(db_->Commit(*txn2));
  EXPECT_EQ(db_->last_recovery_report().rolled_back_txns.size(), 1u);
}

TEST_F(CkptTest, RecoveryUsesCheckpointNotFullLog) {
  Open();
  auto txn = db_->Begin();
  auto t = db_->CreateTable(*txn, "t", 64, 512);
  ASSERT_TRUE(t.ok());
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(db_->Insert(*txn, *t, std::string(64, 'x')).ok());
  }
  ASSERT_OK(db_->Commit(*txn));
  ASSERT_OK(db_->Checkpoint());

  ASSERT_OK(db_->CrashAndRecover());
  // Everything was in the checkpoint; redo had (almost) nothing to apply.
  EXPECT_EQ(db_->last_recovery_report().redo_records_applied, 0u);
  EXPECT_EQ(db_->CountRecords(*db_->FindTable("t")), 100u);
}

TEST_F(CkptTest, AttCodecRoundTrip) {
  Open();
  auto txn = db_->Begin();
  auto t = db_->CreateTable(*txn, "t", 64, 64);
  ASSERT_TRUE(t.ok());
  auto rid = db_->Insert(*txn, *t, std::string(64, 'a'));
  ASSERT_TRUE(rid.ok());
  ASSERT_OK(db_->Update(*txn, *t, rid->slot, 4, "zz"));
  // txn still open: 3 logical undo entries (create, insert, update).
  std::string blob = EncodeAtt(*db_->txns());

  // Decode into a scratch manager and compare.
  auto image = DbImage::Create(4 << 20, 4096);
  ASSERT_TRUE(image.ok());
  ProtectionOptions popts;
  auto prot = ProtectionManager::Create(popts, image->get());
  ASSERT_TRUE(prot.ok());
  auto log = SystemLog::Open(dir_.path() + "/scratch.log");
  ASSERT_TRUE(log.ok());
  TxnManager scratch(image->get(), prot->get(), log->get());
  ASSERT_OK(DecodeAttInto(blob, &scratch));
  ASSERT_EQ(scratch.att().size(), 1u);
  const auto& recovered = *scratch.att().begin()->second;
  EXPECT_EQ(recovered.id(), (*txn)->id());
  ASSERT_EQ(recovered.undo_log().size(), 3u);
  EXPECT_EQ(recovered.undo_log()[0].undo.code, UndoCode::kDropTable);
  EXPECT_EQ(recovered.undo_log()[1].undo.code, UndoCode::kDeleteSlot);
  EXPECT_EQ(recovered.undo_log()[2].undo.code, UndoCode::kWriteField);
  EXPECT_EQ(recovered.undo_log()[2].undo.payload.size(), 2u);
  ASSERT_OK(db_->Abort(*txn));
}

TEST_F(CkptTest, AttCodecRejectsTruncation) {
  Open();
  auto txn = db_->Begin();
  auto t = db_->CreateTable(*txn, "t", 64, 64);
  ASSERT_TRUE(t.ok());
  std::string blob = EncodeAtt(*db_->txns());
  blob.resize(blob.size() / 2);
  auto image = DbImage::Create(4 << 20, 4096);
  ProtectionOptions popts;
  auto prot = ProtectionManager::Create(popts, image->get());
  auto log = SystemLog::Open(dir_.path() + "/scratch2.log");
  TxnManager scratch(image->get(), prot->get(), log->get());
  EXPECT_TRUE(DecodeAttInto(blob, &scratch).IsCorruption());
  ASSERT_OK(db_->Abort(*txn));
}

TEST_F(CkptTest, MetaCrcDetectsTampering) {
  Open();
  ASSERT_OK(db_->Checkpoint());
  auto anchor = db_->checkpointer()->ReadAnchor();
  ASSERT_TRUE(anchor.ok());
  std::string meta_path =
      dir_.path() + (*anchor == 0 ? "/ckpt_A.meta" : "/ckpt_B.meta");
  std::string contents;
  ASSERT_OK(ReadFileToString(meta_path, &contents));
  contents[10] ^= 0xFF;
  ASSERT_OK(WriteFileAtomic(meta_path, contents));
  // Next open must refuse the damaged meta.
  db_.reset();
  auto reopened =
      Database::Open(SmallDbOptions(dir_.path(), ProtectionScheme::kDataCodeword));
  EXPECT_FALSE(reopened.ok());
  EXPECT_TRUE(reopened.status().IsCorruption());
}

TEST_F(CkptTest, CertificationAuditsUntouchedPagesToo) {
  // §4.2: "Even if none of the dirty pages has direct physical corruption,
  // it is possible that a 'clean' page has direct corruption, and a
  // transaction has carried this corruption over to a page that was
  // written out." Certification must therefore audit EVERY page, not just
  // the checkpoint delta.
  Open();
  auto txn = db_->Begin();
  auto t = db_->CreateTable(*txn, "t", 64, 512);
  ASSERT_TRUE(t.ok());
  auto stale = db_->Insert(*txn, *t, std::string(64, 's'));
  ASSERT_TRUE(stale.ok());
  ASSERT_OK(db_->Commit(*txn));
  // Absorb everything into both ping-pong images: `stale` is now clean
  // w.r.t. both, so it will not be in the next checkpoint's delta.
  ASSERT_OK(db_->Checkpoint());
  ASSERT_OK(db_->Checkpoint());

  // Corrupt the untouched record, then dirty a DIFFERENT page.
  db_->UnsafeRawBase()[db_->image()->RecordOff(*t, stale->slot)] ^= 0xFF;
  txn = db_->Begin();
  auto fresh = db_->Insert(*txn, *t, std::string(64, 'f'));
  ASSERT_TRUE(fresh.ok());
  ASSERT_OK(db_->Commit(*txn));

  Status s = db_->Checkpoint();
  EXPECT_TRUE(s.IsCorruption())
      << "certification must audit pages outside the delta";
}

TEST_F(CkptTest, CertifiedCheckpointDoesNotToggleOnCorruption) {
  Open();
  auto txn = db_->Begin();
  auto t = db_->CreateTable(*txn, "t", 64, 64);
  ASSERT_TRUE(t.ok());
  auto rid = db_->Insert(*txn, *t, std::string(64, 'k'));
  ASSERT_TRUE(rid.ok());
  ASSERT_OK(db_->Commit(*txn));
  ASSERT_OK(db_->Checkpoint());
  auto anchor_before = db_->checkpointer()->ReadAnchor();
  ASSERT_TRUE(anchor_before.ok());

  // Corrupt, then attempt a certified checkpoint: must fail and keep the
  // anchor on the clean image.
  db_->UnsafeRawBase()[db_->image()->RecordOff(*t, rid->slot)] ^= 0xFF;
  Status s = db_->Checkpoint();
  EXPECT_TRUE(s.IsCorruption());
  auto anchor_after = db_->checkpointer()->ReadAnchor();
  ASSERT_TRUE(anchor_after.ok());
  EXPECT_EQ(*anchor_before, *anchor_after);
}

// ---------------------------------------------------------------------------
// The checkpoint images mirror the arena. A load rebuilds both dirty sets
// from bytes (the loaded image is dirty where the load repaired it, the
// other image where its file differs), so after each path below the active
// image equals the arena and, after one more checkpoint, so does the other
// (crash-harness invariant 5).
// ---------------------------------------------------------------------------

TEST_F(CkptTest, ImagesMirrorArenaAfterFreshOpenAndLoad) {
  Open();
  EXPECT_OK(crashharness::CheckImagesMirrorArena(db_.get()));
  Populate();
  Reopen();
  EXPECT_OK(crashharness::CheckImagesMirrorArena(db_.get()));
}

TEST_F(CkptTest, ImagesMirrorArenaAfterCrashAndRecover) {
  Open();
  TableId t = Populate();
  ASSERT_OK(db_->Checkpoint());
  CommitUpdate(t, 3, "after the checkpoint");
  ASSERT_OK(db_->CrashAndRecover());
  EXPECT_OK(crashharness::CheckImagesMirrorArena(db_.get()));
}

TEST_F(CkptTest, ImagesMirrorArenaAfterCloseAndOpen) {
  Open();
  TableId t = Populate();
  ASSERT_OK(db_->Checkpoint());
  CommitUpdate(t, 5, "before the close");
  ASSERT_OK(db_->Close());
  Reopen();
  EXPECT_OK(crashharness::CheckImagesMirrorArena(db_.get()));
}

TEST_F(CkptTest, ImagesMirrorArenaAfterDeleteTransactionRecovery) {
  Open(ProtectionScheme::kReadLog);
  TableId t = Populate();
  ASSERT_OK(db_->Checkpoint());
  db_->UnsafeRawBase()[db_->image()->RecordOff(t, 1)] ^= 0xFF;
  // A carrier: reads the corrupt record, writes another.
  auto txn = db_->Begin();
  std::string got;
  ASSERT_OK(db_->Read(*txn, t, 1, &got));
  ASSERT_OK(db_->Update(*txn, t, 2, 0, got.substr(0, 8)));
  ASSERT_OK(db_->Commit(*txn));
  auto audit = db_->Audit();
  ASSERT_TRUE(audit.ok());
  ASSERT_FALSE(audit->clean);
  ASSERT_OK(db_->CrashAndRecover());
  EXPECT_EQ(db_->last_recovery_report().deleted_txns.size(), 1u);
  EXPECT_OK(crashharness::CheckImagesMirrorArena(db_.get()));
}

TEST_F(CkptTest, ImagesMirrorArenaAfterRecoverToPriorState) {
  Open();
  TableId t = Populate();
  ASSERT_OK(db_->Checkpoint());
  CommitUpdate(t, 7, "kept");
  const Lsn point = db_->CurrentLsn();
  CommitUpdate(t, 8, "discarded");
  ASSERT_OK(db_->RecoverToPriorState(point));
  EXPECT_EQ(db_->last_recovery_report().deleted_txns.size(), 1u);
  EXPECT_OK(crashharness::CheckImagesMirrorArena(db_.get()));
}

TEST_F(CkptTest, ImagesMirrorArenaAfterLoadRepairsFlippedImageByte) {
  Open();
  TableId t = Populate();
  ASSERT_OK(db_->Checkpoint());  // Writes the image and its parity sidecar.
  const int active = ActiveImage();
  const DbPtr off = db_->image()->RecordOff(t, 9) + 3;
  db_.reset();
  std::string image;
  ASSERT_OK(ReadFileToString(files().CkptImage(active), &image));
  image[off] ^= 0x20;
  ASSERT_OK(WriteFileAtomic(files().CkptImage(active), image));

  Open();
  EXPECT_EQ(db_->metrics()->Capture().CounterValue("repair.load_repaired"),
            1u);
  // The load repaired the arena; the file it came from still holds the
  // flip until the checkpoint after next rewrites that page.
  EXPECT_OK(crashharness::CheckImagesMirrorArena(db_.get()));
}

TEST_F(CkptTest, ImagesMirrorArenaAfterRestoreArchive) {
  Open();
  TableId t = Populate();
  TempDir archive;
  ASSERT_TRUE(db_->Archive(archive.path() + "/arch").ok());
  CommitUpdate(t, 10, "after the archive");
  ASSERT_OK(db_->Checkpoint());
  CommitUpdate(t, 11, "after both images moved on");
  ASSERT_OK(db_->Checkpoint());
  db_.reset();
  ASSERT_OK(RestoreArchive(archive.path() + "/arch", files()));
  Open();
  EXPECT_OK(crashharness::CheckImagesMirrorArena(db_.get()));
}

TEST_F(CkptTest, ImagesMirrorArenaWithGarbageInactiveMeta) {
  Open();
  TableId t = Populate();
  ASSERT_OK(db_->Checkpoint());
  CommitUpdate(t, 12, "logged only");
  const int inactive = 1 - ActiveImage();
  db_.reset();
  ASSERT_OK(WriteFileAtomic(files().CkptMeta(inactive), "garbage garbage"));
  Open();
  EXPECT_OK(crashharness::CheckImagesMirrorArena(db_.get()));
}

TEST_F(CkptTest, ImagesMirrorArenaWithTruncatedInactiveImage) {
  Open();
  TableId t = Populate();
  ASSERT_OK(db_->Checkpoint());
  CommitUpdate(t, 13, "logged only");
  const int inactive = 1 - ActiveImage();
  const uint64_t size = db_->arena_size();
  db_.reset();
  ASSERT_EQ(::truncate(files().CkptImage(inactive).c_str(),
                       static_cast<off_t>(size / 2)),
            0);
  Open();
  // A short file cannot be compared: the closing checkpoint rewrote it
  // whole.
  EXPECT_EQ(db_->checkpointer()->pages_written_last(),
            db_->image()->page_count());
  EXPECT_OK(crashharness::CheckImagesMirrorArena(db_.get()));
}

TEST_F(CkptTest, RestartCheckpointWritesOnlyChangedPages) {
  Open();
  ASSERT_OK(db_->Checkpoint());  // Both images now hold the fresh arena.
  Populate();
  ASSERT_OK(db_->CrashAndRecover());
  // The closing checkpoint of recovery writes what the transaction
  // changed, not the whole ~1000-page arena.
  const uint64_t pages = db_->checkpointer()->pages_written_last();
  EXPECT_GT(pages, 0u);
  EXPECT_LT(pages, 16u);
  EXPECT_OK(crashharness::CheckImagesMirrorArena(db_.get()));
}

// ---------------------------------------------------------------------------
// The checkpoint meta decoder (also fuzzed: fuzz/fuzz_ckpt_meta.cc).
// ---------------------------------------------------------------------------

constexpr uint64_t kMetaArena = 4 << 20;
constexpr uint32_t kMetaPage = 4096;

std::string SampleMeta() {
  CheckpointMeta meta;
  meta.ck_end = 123456;
  meta.att_blob = "an ATT blob of some length";
  return EncodeCheckpointMeta(meta, kMetaArena, kMetaPage);
}

/// Re-seals a damaged body with a fresh CRC, so the decoder gets past the
/// checksum to the check behind it.
std::string Reseal(std::string body) {
  PutFixed32(&body, Crc32c(body.data(), body.size()));
  return body;
}

TEST(CheckpointMetaCodec, RoundTrips) {
  auto meta = DecodeCheckpointMeta(SampleMeta(), kMetaArena, kMetaPage);
  ASSERT_TRUE(meta.ok()) << meta.status().ToString();
  EXPECT_EQ(meta->ck_end, 123456u);
  EXPECT_EQ(meta->att_blob, "an ATT blob of some length");
}

TEST(CheckpointMetaCodec, RejectsTruncation) {
  const std::string meta = SampleMeta();
  for (size_t len = 0; len < meta.size(); ++len) {
    EXPECT_TRUE(DecodeCheckpointMeta(Slice(meta.data(), len), kMetaArena,
                                     kMetaPage)
                    .status()
                    .IsCorruption())
        << "prefix of " << len << " bytes";
  }
  // A body cut inside the ATT but carrying a valid CRC.
  std::string cut = meta.substr(0, meta.size() - 4 - 5);
  EXPECT_TRUE(DecodeCheckpointMeta(Reseal(cut), kMetaArena, kMetaPage)
                  .status()
                  .IsCorruption());
}

TEST(CheckpointMetaCodec, RejectsFlippedCrcAndBody) {
  std::string meta = SampleMeta();
  for (size_t i = 0; i < meta.size(); ++i) {
    std::string flipped = meta;
    flipped[i] ^= 0x01;
    EXPECT_TRUE(DecodeCheckpointMeta(flipped, kMetaArena, kMetaPage)
                    .status()
                    .IsCorruption())
        << "flip at byte " << i;
  }
  // A wrong magic behind a valid CRC.
  std::string body = meta.substr(0, meta.size() - 4);
  body[0] ^= 0x01;
  EXPECT_TRUE(DecodeCheckpointMeta(Reseal(body), kMetaArena, kMetaPage)
                  .status()
                  .IsCorruption());
}

TEST(CheckpointMetaCodec, RejectsGeometryMismatch) {
  const std::string meta = SampleMeta();
  EXPECT_TRUE(DecodeCheckpointMeta(meta, kMetaArena * 2, kMetaPage)
                  .status()
                  .IsCorruption());
  EXPECT_TRUE(DecodeCheckpointMeta(meta, kMetaArena, kMetaPage * 2)
                  .status()
                  .IsCorruption());
}

// ---------------------------------------------------------------------------
// Checkpoints racing a writer (the checkpointed ATT copy and the one-at-a-
// time rule; run under TSan too).
// ---------------------------------------------------------------------------

/// One writer runs transactions of 8 updates over a 2,048-record table,
/// aborting every 16th, while `checkpointers` threads loop Checkpoint();
/// then a crash. No checkpoint may fail, every record must hold its last
/// committed value, and recovery may roll nothing back: no transaction was
/// open at the crash, and one copied into a checkpoint after its commit or
/// abort record was staged would be.
void RunWriterBesideCheckpointers(Database* db, int checkpointers) {
  constexpr uint32_t kRecords = 2048;
  constexpr uint64_t kTxns = 3000;
  constexpr uint32_t kUpdatesPerTxn = 8;
  auto txn = db->Begin();
  auto t = db->CreateTable(*txn, "w", 16, kRecords);
  ASSERT_TRUE(t.ok());
  for (uint32_t r = 0; r < kRecords; ++r) {
    auto rid = db->Insert(*txn, *t, std::string(16, '\0'));
    ASSERT_TRUE(rid.ok());
    ASSERT_EQ(rid->slot, r);
  }
  ASSERT_OK(db->Commit(*txn));

  std::atomic<bool> writing{true};
  std::atomic<uint64_t> taken{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < checkpointers; ++c) {
    threads.emplace_back([&] {
      while (writing.load(std::memory_order_relaxed)) {
        Status s = db->Checkpoint();
        if (s.ok()) {
          taken.fetch_add(1);
        } else {
          ADD_FAILURE() << "checkpoint failed: " << s.ToString();
        }
      }
    });
  }
  std::vector<uint64_t> committed(kRecords, 0);
  Status writer_status;
  for (uint64_t i = 1; i <= kTxns && writer_status.ok(); ++i) {
    auto w = db->Begin();
    writer_status = w.status();
    std::string value;
    PutFixed64(&value, i);
    for (uint32_t k = 0; k < kUpdatesPerTxn && writer_status.ok(); ++k) {
      writer_status = db->Update(*w, *t, (i * 131 + k * 257) % kRecords, 0,
                                 value);
    }
    if (!writer_status.ok()) break;
    if (i % 16 == 0) {
      writer_status = db->Abort(*w);
      continue;
    }
    writer_status = db->Commit(*w);
    for (uint32_t k = 0; k < kUpdatesPerTxn; ++k) {
      committed[(i * 131 + k * 257) % kRecords] = i;
    }
  }
  writing.store(false);
  for (std::thread& th : threads) th.join();
  ASSERT_OK(writer_status);
  EXPECT_GT(taken.load(), 0u);

  ASSERT_OK(db->CrashAndRecover());
  EXPECT_TRUE(db->last_recovery_report().rolled_back_txns.empty());
  auto reader = db->Begin();
  for (uint32_t r = 0; r < kRecords; ++r) {
    std::string got;
    ASSERT_OK(db->Read(*reader, *t, r, &got));
    ASSERT_EQ(DecodeFixed64(got.data()), committed[r]) << "record " << r;
  }
  ASSERT_OK(db->Commit(*reader));
}

TEST_F(CkptTest, CheckpointLoopBesideWriterKeepsCommittedValues) {
  Open();
  RunWriterBesideCheckpointers(db_.get(), 1);
}

TEST_F(CkptTest, TwoCheckpointThreadsBesideWriterNeverFail) {
  Open();
  RunWriterBesideCheckpointers(db_.get(), 2);
}

/// Audit() and a checkpoint both replace audit.meta through the same temp
/// file; neither may fail because the other is running.
TEST_F(CkptTest, AuditsBesideCheckpointsNeverFail) {
  Open();
  Populate();
  std::atomic<bool> auditing{true};
  std::thread auditor([&] {
    while (auditing.load(std::memory_order_relaxed)) {
      auto report = db_->Audit();
      if (!report.ok()) {
        ADD_FAILURE() << "audit failed: " << report.status().ToString();
      } else if (!report->clean) {
        ADD_FAILURE() << "audit found corruption";
      }
    }
  });
  for (int i = 0; i < 500; ++i) EXPECT_OK(db_->Checkpoint());
  auditing.store(false);
  auditor.join();
}

}  // namespace
}  // namespace cwdb
