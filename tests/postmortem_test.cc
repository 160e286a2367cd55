// End-to-end tests of the crash-surviving flight recorder: a process dying
// at an armed crash point, by SIGKILL-style _exit, or on a genuine SIGSEGV
// must leave a decodable blackbox.bin; the next open must rotate it and
// file an IncidentSource::kCrash dossier; a clean Close must not. Also the
// regression test for the fault injector's ScopedTrap chaining (a scoped
// trap must not eat the global fatal handler).

#include <csignal>
#include <cstring>
#include <string>

#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "ckpt/checkpoint.h"
#include "common/crashpoint.h"
#include "common/file_util.h"
#include "faultinject/fault_injector.h"
#include "obs/flight_recorder.h"
#include "obs/forensics.h"
#include "obs/postmortem.h"
#include "obs/seq_ring.h"
#include "tests/test_util.h"

namespace cwdb {
namespace {

/// One committed transaction so the child generates WAL flushes, trace
/// events and staged-LSN mirror traffic before it dies.
TableId CommitOneTxn(Database* db) {
  Result<Transaction*> txn = db->Begin();
  EXPECT_TRUE(txn.ok());
  Result<TableId> table = db->CreateTable(*txn, "t", 64, 128);
  EXPECT_TRUE(table.ok());
  EXPECT_TRUE(db->Insert(*txn, *table, std::string(64, 'x')).ok());
  EXPECT_TRUE(db->Commit(*txn).ok());
  return *table;
}

/// Forks `child`, waits, and returns the raw wait status.
template <typename Fn>
int ForkAndWait(Fn child) {
  pid_t pid = ::fork();
  if (pid == 0) {
    child();
    ::_exit(0);
  }
  int status = 0;
  EXPECT_EQ(::waitpid(pid, &status, 0), pid);
  return status;
}

TEST(Postmortem, CrashAtArmedPointLeavesDecodableBox) {
  TempDir dir;
  DatabaseOptions opts = SmallDbOptions(dir.path(), ProtectionScheme::kNone);

  int status = ForkAndWait([&] {
    Result<std::unique_ptr<Database>> db = Database::Open(opts);
    if (!db.ok()) ::_exit(3);
    crashpoint::Spec spec;
    spec.mode = crashpoint::Mode::kAbort;
    crashpoint::Arm("wal.flush.fdatasync", spec);
    CommitOneTxn(db->get());
    ::_exit(4);  // The point should have fired inside Commit.
  });
  ASSERT_TRUE(WIFEXITED(status));
  ASSERT_EQ(WEXITSTATUS(status), crashpoint::kCrashExitCode);

  // The dead child's box: decodable, unclean, with the armed point and the
  // child's WAL frontiers mirrored.
  DbFiles files(dir.path());
  Result<BlackBoxReport> box = ReadBlackBox(files.BlackBox());
  ASSERT_TRUE(box.ok()) << box.status().ToString();
  EXPECT_FALSE(box->clean_shutdown);
  EXPECT_NE(box->armed_crashpoints.find("wal.flush.fdatasync"),
            std::string::npos)
      << "armed: " << box->armed_crashpoints;
  EXPECT_FALSE(box->crash.valid);  // _exit, not a fatal signal.
  EXPECT_EQ(box->arena_size, opts.arena_size);
  EXPECT_EQ(box->scheme, std::string(ProtectionSchemeName(
                             ProtectionScheme::kNone)));
  EXPECT_FALSE(box->events.empty());
  std::string rendered = RenderBlackBox(*box);
  EXPECT_NE(rendered.find("UNCLEAN"), std::string::npos);

  // Reopen: the box is rotated and a crash dossier filed.
  Result<std::unique_ptr<Database>> db = Database::Open(opts);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  EXPECT_NE((*db)->crash_incident_id(), 0u);
  ASSERT_NE((*db)->prior_blackbox(), nullptr);
  EXPECT_FALSE((*db)->prior_blackbox()->clean_shutdown);
  EXPECT_TRUE(FileExists(files.BlackBoxPrev()));
  EXPECT_TRUE(FileExists(files.BlackBox()));  // The new incarnation's box.
  ASSERT_OK((*db)->Close());
}

TEST(Postmortem, KilledChildWithoutSignalRecordStillFilesDossier) {
  TempDir dir;
  DatabaseOptions opts = SmallDbOptions(dir.path(), ProtectionScheme::kNone);

  int status = ForkAndWait([&] {
    Result<std::unique_ptr<Database>> db = Database::Open(opts);
    if (!db.ok()) ::_exit(3);
    CommitOneTxn(db->get());
    ::_exit(5);  // Unclean death with no crash point and no signal.
  });
  ASSERT_TRUE(WIFEXITED(status));
  ASSERT_EQ(WEXITSTATUS(status), 5);

  Result<std::unique_ptr<Database>> db = Database::Open(opts);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  EXPECT_NE((*db)->crash_incident_id(), 0u);
  ASSERT_NE((*db)->prior_blackbox(), nullptr);
  EXPECT_FALSE((*db)->prior_blackbox()->crash.valid);
  // The committed transaction survived alongside the dossier.
  EXPECT_TRUE((*db)->FindTable("t").ok());
  ASSERT_OK((*db)->Close());
}

TEST(Postmortem, GenuineSegvIsRecordedWithArenaAttribution) {
  TempDir dir;
  DatabaseOptions opts =
      SmallDbOptions(dir.path(), ProtectionScheme::kHardware);
  opts.flight_recorder.install_fatal_handler = true;

  int status = ForkAndWait([&] {
    Result<std::unique_ptr<Database>> db = Database::Open(opts);
    if (!db.ok()) ::_exit(3);
    TableId table = CommitOneTxn(db->get());
    // A wild store straight into the protected image — the paper's
    // addressing error. Hardware protection faults it; the fatal handler
    // records the crash and chains to the default disposition.
    DbPtr off = (*db)->image()->RecordOff(table, 0);
    (*db)->UnsafeRawBase()[off] = 0xAA;
    ::_exit(6);  // Unreachable when the scheme protects the page.
  });
  // Plain builds die by the re-raised SIGSEGV; sanitizer builds may turn
  // it into a nonzero exit after their own report. Either way the child
  // must not have reached the post-store exit.
  if (WIFEXITED(status)) {
    EXPECT_NE(WEXITSTATUS(status), 6);
    EXPECT_NE(WEXITSTATUS(status), 0);
  } else {
    ASSERT_TRUE(WIFSIGNALED(status));
    EXPECT_EQ(WTERMSIG(status), SIGSEGV);
  }

  DbFiles files(dir.path());
  Result<BlackBoxReport> box = ReadBlackBox(files.BlackBox());
  ASSERT_TRUE(box.ok()) << box.status().ToString();
  EXPECT_FALSE(box->clean_shutdown);
  ASSERT_TRUE(box->crash.valid);
  EXPECT_EQ(box->crash.signal, SIGSEGV);
  EXPECT_TRUE(box->crash.fault_in_arena);
  EXPECT_LT(box->crash.fault_off, opts.arena_size);

  // Reopen: the dossier carries the fault's arena attribution.
  Result<std::unique_ptr<Database>> db = Database::Open(opts);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  EXPECT_NE((*db)->crash_incident_id(), 0u);
  ASSERT_NE((*db)->prior_blackbox(), nullptr);
  EXPECT_TRUE((*db)->prior_blackbox()->crash.fault_in_arena);
  ASSERT_OK((*db)->Close());
}

TEST(Postmortem, ScopedTrapChainsInsteadOfEatingTheFatalHandler) {
  TempDir dir;
  DatabaseOptions opts =
      SmallDbOptions(dir.path(), ProtectionScheme::kHardware);
  opts.flight_recorder.install_fatal_handler = true;
  Result<std::unique_ptr<Database>> db = Database::Open(opts);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  ASSERT_TRUE(FlightRecorder::FatalHandlerInstalled());

  struct sigaction before;
  ASSERT_EQ(::sigaction(SIGSEGV, nullptr, &before), 0);

  // An injected wild write under the hardware scheme: the scoped trap must
  // claim the fault in its own page window (prevented), then restore the
  // flight recorder's handler — not leave SIG_DFL or itself behind.
  FaultInjector injector(db->get(), /*seed=*/1);
  FaultInjector::Outcome out = injector.WildWriteAt(
      (*db)->arena_size() / 2, Slice("zz", 2));
  EXPECT_TRUE(out.prevented);
  EXPECT_FALSE(out.changed_bits);

  struct sigaction after;
  ASSERT_EQ(::sigaction(SIGSEGV, nullptr, &after), 0);
  EXPECT_EQ(before.sa_sigaction, after.sa_sigaction);
  EXPECT_TRUE(FlightRecorder::FatalHandlerInstalled());
  ASSERT_OK((*db)->Close());
}

TEST(Postmortem, CleanCloseMarksTheBoxAndFilesNoDossier) {
  TempDir dir;
  DatabaseOptions opts = SmallDbOptions(dir.path(), ProtectionScheme::kNone);
  {
    Result<std::unique_ptr<Database>> db = Database::Open(opts);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    CommitOneTxn(db->get());
    ASSERT_OK((*db)->Close());
  }
  DbFiles files(dir.path());
  Result<BlackBoxReport> box = ReadBlackBox(files.BlackBox());
  ASSERT_TRUE(box.ok()) << box.status().ToString();
  EXPECT_TRUE(box->clean_shutdown);

  Result<std::unique_ptr<Database>> db = Database::Open(opts);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  EXPECT_EQ((*db)->crash_incident_id(), 0u);
  EXPECT_EQ((*db)->prior_blackbox(), nullptr);
  EXPECT_FALSE(FileExists(files.BlackBoxPrev()));
  ASSERT_OK((*db)->Close());
}

TEST(Postmortem, GarbageBlackBoxIsToleratedAtOpen) {
  TempDir dir;
  DatabaseOptions opts = SmallDbOptions(dir.path(), ProtectionScheme::kNone);
  {
    Result<std::unique_ptr<Database>> db = Database::Open(opts);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    ASSERT_OK((*db)->Close());
  }
  DbFiles files(dir.path());
  ASSERT_OK(WriteFileAtomic(files.BlackBox(),
                            std::string(1000, '\xff') + "not a black box"));

  // A box that does not decode is not evidence of anything: the open
  // replaces it and files nothing.
  Result<std::unique_ptr<Database>> db = Database::Open(opts);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  EXPECT_EQ((*db)->crash_incident_id(), 0u);
  EXPECT_EQ((*db)->prior_blackbox(), nullptr);
  Result<BlackBoxReport> box = ReadBlackBox(files.BlackBox());
  EXPECT_TRUE(box.ok()) << box.status().ToString();
  ASSERT_OK((*db)->Close());
}

TEST(Postmortem, TraceSlotBytesArePinned) {
  // A v1 trace slot, spelled out: ticket at +0; t_ns, lsn, a, b, shard at
  // +8..+40; the type as u32 at +48; the CRC-32C of bytes +8..+52 at +52.
  // The event ring writes these bytes in place and the decoder reads them,
  // so pinning them here keeps the two from drifting together.
  static const uint8_t kSlot1[64] = {
      0x04, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // ticket 2*1+2
      0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01,  // t_ns
      0x18, 0x17, 0x16, 0x15, 0x14, 0x13, 0x12, 0x11,  // lsn
      0x28, 0x27, 0x26, 0x25, 0x24, 0x23, 0x22, 0x21,  // a
      0x38, 0x37, 0x36, 0x35, 0x34, 0x33, 0x32, 0x31,  // b
      0x05, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // shard
      0x0c, 0x00, 0x00, 0x00, 0x64, 0xa1, 0xab, 0x6b,  // type=12, crc
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
  };
  TempDir dir;
  const std::string path = dir.path() + "/blackbox.bin";
  Result<std::unique_ptr<FlightRecorder>> fr =
      FlightRecorder::Create(path, FlightRecorderInfo{});
  ASSERT_TRUE(fr.ok()) << fr.status().ToString();
  // The clock-free half of EventTrace::Record: encode, push into the box.
  SeqRing<TraceSlot> ring((*fr)->trace_section(), blackbox::kTraceSlots);
  TraceEvent e;
  e.t_ns = 0x0102030405060708ull;
  e.lsn = 0x1112131415161718ull;
  e.a = 0x2122232425262728ull;
  e.b = 0x3132333435363738ull;
  e.shard = 5;
  e.type = TraceEventType::kRepair;
  ASSERT_TRUE(ring.Push(EncodeTraceSlot(TraceEvent{})));  // seq 0, slot 0
  ASSERT_TRUE(ring.Push(EncodeTraceSlot(e)));             // seq 1, slot 1

  std::string bytes;
  ASSERT_OK(ReadFileToString(path, &bytes));
  ASSERT_EQ(bytes.size(), blackbox::kTotalBytes);
  EXPECT_EQ(bytes.substr(blackbox::kTraceOff + blackbox::kTraceSlotBytes,
                         blackbox::kTraceSlotBytes),
            std::string(reinterpret_cast<const char*>(kSlot1),
                        sizeof(kSlot1)));

  Result<BlackBoxReport> box = DecodeBlackBox(bytes);
  ASSERT_TRUE(box.ok()) << box.status().ToString();
  ASSERT_EQ(box->events.size(), 2u);
  const TraceEvent& got = box->events[1];
  EXPECT_EQ(got.seq, 1u);
  EXPECT_EQ(got.t_ns, e.t_ns);
  EXPECT_EQ(got.lsn, e.lsn);
  EXPECT_EQ(got.a, e.a);
  EXPECT_EQ(got.b, e.b);
  EXPECT_EQ(got.shard, e.shard);
  EXPECT_EQ(got.type, e.type);
}

TEST(Postmortem, DecoderRejectsNonBoxes) {
  EXPECT_TRUE(DecodeBlackBox("").status().IsCorruption());
  EXPECT_TRUE(DecodeBlackBox("CWBBOX01").status().IsCorruption());
  std::string wrong(blackbox::kTotalBytes, '\0');
  EXPECT_TRUE(DecodeBlackBox(wrong).status().IsCorruption());
}

}  // namespace
}  // namespace cwdb
