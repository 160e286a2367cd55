// Unit tests for the write-ahead log: record encode/decode round trips,
// system log framing, flush/durability accounting, torn-tail handling, and
// the log reader.

#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/coding.h"
#include "common/crashpoint.h"
#include "common/crc32.h"
#include "common/file_util.h"
#include "common/random.h"
#include "tests/test_util.h"
#include "wal/log_record.h"
#include "wal/system_log.h"

namespace cwdb {
namespace {

TEST(LogRecord, TxnRecordsRoundTrip) {
  for (auto encode : {EncodeBeginTxn, EncodeCommitTxn, EncodeAbortTxn}) {
    std::string buf;
    encode(&buf, 42);
    LogRecord rec;
    ASSERT_TRUE(DecodeLogRecord(buf, &rec));
    EXPECT_EQ(rec.txn, 42u);
  }
  std::string buf;
  EncodeBeginTxn(&buf, 7);
  LogRecord rec;
  ASSERT_TRUE(DecodeLogRecord(buf, &rec));
  EXPECT_EQ(rec.type, LogRecordType::kBeginTxn);
}

TEST(LogRecord, PhysRedoRoundTrip) {
  std::string buf;
  EncodePhysRedo(&buf, 9, 0x1234, Slice("afterbytes"), nullptr);
  LogRecord rec;
  ASSERT_TRUE(DecodeLogRecord(buf, &rec));
  EXPECT_EQ(rec.type, LogRecordType::kPhysRedo);
  EXPECT_EQ(rec.txn, 9u);
  EXPECT_EQ(rec.off, 0x1234u);
  EXPECT_EQ(rec.len, 10u);
  EXPECT_FALSE(rec.has_cksum);
  EXPECT_EQ(rec.after, "afterbytes");
}

TEST(LogRecord, PhysRedoWithChecksumRoundTrip) {
  codeword_t cksum = 0xABCD1234;
  std::string buf;
  EncodePhysRedo(&buf, 9, 8, Slice("xy"), &cksum);
  LogRecord rec;
  ASSERT_TRUE(DecodeLogRecord(buf, &rec));
  EXPECT_TRUE(rec.has_cksum);
  EXPECT_EQ(rec.cksum, 0xABCD1234u);
  EXPECT_EQ(rec.after, "xy");
}

TEST(LogRecord, ReadLogRoundTrip) {
  std::string buf;
  EncodeReadLog(&buf, 3, 512, 100, nullptr);
  LogRecord rec;
  ASSERT_TRUE(DecodeLogRecord(buf, &rec));
  EXPECT_EQ(rec.type, LogRecordType::kReadLog);
  EXPECT_EQ(rec.off, 512u);
  EXPECT_EQ(rec.len, 100u);
  EXPECT_FALSE(rec.has_cksum);

  codeword_t cksum = 55;
  buf.clear();
  EncodeReadLog(&buf, 3, 512, 100, &cksum);
  ASSERT_TRUE(DecodeLogRecord(buf, &rec));
  EXPECT_TRUE(rec.has_cksum);
  EXPECT_EQ(rec.cksum, 55u);
}

TEST(LogRecord, BeginOpRoundTrip) {
  std::string buf;
  EncodeBeginOp(&buf, 5, 77, 1, OpCode::kInsert, 3, 12, 0x9000, 24);
  LogRecord rec;
  ASSERT_TRUE(DecodeLogRecord(buf, &rec));
  EXPECT_EQ(rec.type, LogRecordType::kBeginOp);
  EXPECT_EQ(rec.op_id, 77u);
  EXPECT_EQ(rec.level, 1);
  EXPECT_EQ(rec.opcode, OpCode::kInsert);
  EXPECT_EQ(rec.table, 3);
  EXPECT_EQ(rec.slot, 12u);
  EXPECT_EQ(rec.off, 0x9000u);
  EXPECT_EQ(rec.len, 24u);
}

TEST(LogRecord, CommitOpRoundTrip) {
  LogicalUndo undo;
  undo.code = UndoCode::kReinsertSlot;
  undo.table = 2;
  undo.slot = 9;
  undo.field_off = 4;
  undo.raw_off = 0xBEEF;
  undo.payload = "oldrecordbytes";
  std::string buf;
  EncodeCommitOp(&buf, 5, 77, 1, undo);
  LogRecord rec;
  ASSERT_TRUE(DecodeLogRecord(buf, &rec));
  EXPECT_EQ(rec.type, LogRecordType::kCommitOp);
  EXPECT_EQ(rec.undo.code, UndoCode::kReinsertSlot);
  EXPECT_EQ(rec.undo.table, 2);
  EXPECT_EQ(rec.undo.slot, 9u);
  EXPECT_EQ(rec.undo.field_off, 4u);
  EXPECT_EQ(rec.undo.raw_off, 0xBEEFu);
  EXPECT_EQ(rec.undo.payload, "oldrecordbytes");
}

TEST(LogRecord, RejectsGarbage) {
  LogRecord rec;
  EXPECT_FALSE(DecodeLogRecord(Slice("\xFFgarbage", 8), &rec));
  EXPECT_FALSE(DecodeLogRecord(Slice("", 0), &rec));
  // Truncated phys redo (claims 100 bytes of after-image, has none).
  std::string buf;
  EncodePhysRedo(&buf, 1, 0, Slice("0123456789"), nullptr);
  EXPECT_FALSE(DecodeLogRecord(Slice(buf.data(), buf.size() - 5), &rec));
}

class SystemLogTest : public ::testing::Test {
 protected:
  std::string LogPath() { return dir_.path() + "/test.log"; }
  TempDir dir_;
};

TEST_F(SystemLogTest, AppendAssignsMonotonicLsns) {
  auto log = SystemLog::Open(LogPath());
  ASSERT_TRUE(log.ok());
  Lsn a = (*log)->Append("one");
  Lsn b = (*log)->Append("two");
  EXPECT_LT(a, b);
  EXPECT_EQ((*log)->end_of_stable_log(), 0u);
  EXPECT_GT((*log)->CurrentLsn(), b);
}

TEST_F(SystemLogTest, FlushMakesRecordsDurable) {
  {
    auto log = SystemLog::Open(LogPath());
    ASSERT_TRUE(log.ok());
    (*log)->Append("alpha");
    (*log)->Append("beta");
    ASSERT_OK((*log)->Flush());
    EXPECT_EQ((*log)->end_of_stable_log(), (*log)->CurrentLsn());
  }
  auto reader = LogReader::Open(LogPath(), 0, kInvalidLsn);
  ASSERT_TRUE(reader.ok());
  // Payloads are not LogRecords here; use raw framing via a fresh reader...
  // Instead verify via SystemLog reopen: stable size preserved.
  auto log2 = SystemLog::Open(LogPath());
  ASSERT_TRUE(log2.ok());
  EXPECT_GT((*log2)->end_of_stable_log(), 0u);
}

TEST_F(SystemLogTest, DiscardTailLosesUnflushed) {
  auto log = SystemLog::Open(LogPath());
  ASSERT_TRUE(log.ok());
  (*log)->Append("kept");
  ASSERT_OK((*log)->Flush());
  Lsn stable = (*log)->end_of_stable_log();
  (*log)->Append("lost");
  (*log)->DiscardTail();
  EXPECT_EQ((*log)->CurrentLsn(), stable);
}

TEST_F(SystemLogTest, TornTailIsTruncatedOnOpen) {
  uint64_t good = 0;
  {
    auto log = SystemLog::Open(LogPath());
    ASSERT_TRUE(log.ok());
    std::string payload;
    EncodeBeginTxn(&payload, 1);
    (*log)->Append(payload);
    ASSERT_OK((*log)->Flush());
    good = (*log)->end_of_stable_log();
  }
  // Garbage at the write frontier simulating a torn write. (The file is
  // longer than the stable prefix — preallocated zeros — so the frontier
  // is end_of_stable_log, not the file size.)
  std::string contents;
  ASSERT_OK(ReadFileToString(LogPath(), &contents));
  contents.resize(good);
  contents += "\x10\x00\x00\x00TORN";
  ASSERT_OK(WriteFileAtomic(LogPath(), contents));

  auto log = SystemLog::Open(LogPath());
  ASSERT_TRUE(log.ok());
  EXPECT_EQ((*log)->end_of_stable_log(), good);

  // The reader also stops at the valid prefix.
  auto reader = LogReader::Open(LogPath(), 0, kInvalidLsn);
  ASSERT_TRUE(reader.ok());
  LogRecord rec;
  Lsn lsn;
  int n = 0;
  while ((*reader)->Next(&rec, &lsn)) ++n;
  EXPECT_EQ(n, 1);
  EXPECT_EQ((*reader)->position(), good);
}

TEST_F(SystemLogTest, CorruptMiddleFrameEndsLogThere) {
  uint64_t stable = 0;
  {
    auto log = SystemLog::Open(LogPath());
    ASSERT_TRUE(log.ok());
    std::string p1, p2;
    EncodeBeginTxn(&p1, 1);
    EncodeCommitTxn(&p2, 1);
    (*log)->Append(p1);
    (*log)->Append(p2);
    ASSERT_OK((*log)->Flush());
    stable = (*log)->end_of_stable_log();
  }
  std::string contents;
  ASSERT_OK(ReadFileToString(LogPath(), &contents));
  contents[stable / 2] ^= 0x01;  // Flip a bit mid-frames.
  ASSERT_OK(WriteFileAtomic(LogPath(), contents));

  auto reader = LogReader::Open(LogPath(), 0, kInvalidLsn);
  ASSERT_TRUE(reader.ok());
  LogRecord rec;
  int n = 0;
  while ((*reader)->Next(&rec, nullptr)) ++n;
  EXPECT_LT(n, 2);  // CRC stops the scan at the corrupt frame.
}

TEST_F(SystemLogTest, PreallocatedZeroTailIsCleanEndOfLog) {
  uint64_t stable = 0;
  {
    auto log = SystemLog::Open(LogPath());
    ASSERT_TRUE(log.ok());
    std::string p;
    EncodeBeginTxn(&p, 1);
    (*log)->Append(p);
    ASSERT_OK((*log)->Flush());
    stable = (*log)->end_of_stable_log();
  }
  // The drainer zero-extends past the frontier so steady-state fsyncs sync
  // pure data; the file is therefore longer than the stable prefix.
  std::string contents;
  ASSERT_OK(ReadFileToString(LogPath(), &contents));
  ASSERT_GT(contents.size(), stable);
  EXPECT_EQ(contents.find_first_not_of('\0', stable), std::string::npos);

  // Reopen reads the zero tail as clean preallocation: the stable end is
  // exactly the frames, and nothing is classified as in-place damage.
  auto log = SystemLog::Open(LogPath());
  ASSERT_TRUE(log.ok());
  EXPECT_EQ((*log)->end_of_stable_log(), stable);
  EXPECT_FALSE((*log)->tail_scan().damaged);

  auto reader = LogReader::Open(LogPath(), 0, kInvalidLsn);
  ASSERT_TRUE(reader.ok());
  LogRecord rec;
  int n = 0;
  while ((*reader)->Next(&rec, nullptr)) ++n;
  EXPECT_EQ(n, 1);
  EXPECT_EQ((*reader)->position(), stable);
}

TEST_F(SystemLogTest, ReaderHonorsStartAndLimit) {
  Lsn second;
  {
    auto log = SystemLog::Open(LogPath());
    ASSERT_TRUE(log.ok());
    std::string p;
    EncodeBeginTxn(&p, 1);
    (*log)->Append(p);
    p.clear();
    EncodeBeginTxn(&p, 2);
    second = (*log)->Append(p);
    p.clear();
    EncodeBeginTxn(&p, 3);
    (*log)->Append(p);
    ASSERT_OK((*log)->Flush());
  }
  auto reader = LogReader::Open(LogPath(), second, kInvalidLsn);
  ASSERT_TRUE(reader.ok());
  LogRecord rec;
  ASSERT_TRUE((*reader)->Next(&rec, nullptr));
  EXPECT_EQ(rec.txn, 2u);
  ASSERT_TRUE((*reader)->Next(&rec, nullptr));
  EXPECT_EQ(rec.txn, 3u);
  EXPECT_FALSE((*reader)->Next(&rec, nullptr));

  auto limited = LogReader::Open(LogPath(), 0, second);
  ASSERT_TRUE(limited.ok());
  int n = 0;
  while ((*limited)->Next(&rec, nullptr)) ++n;
  EXPECT_EQ(n, 1);
}

TEST_F(SystemLogTest, FailedFlushIsCountedAndRetryCoversBatchOnce) {
  auto log = SystemLog::Open(LogPath());
  ASSERT_TRUE(log.ok());
  std::string p;
  EncodeBeginTxn(&p, 1);
  Lsn first = (*log)->Append(p);
  p.clear();
  EncodeBeginTxn(&p, 2);
  (*log)->Append(p);

  // First flush attempt dies on the injected fdatasync error: the batch
  // must be restored to the tail (nothing durable) and counted as exactly
  // one failure, zero completed flushes.
  crashpoint::Arm("wal.flush.fdatasync",
                  {crashpoint::Mode::kEio, /*countdown=*/1, /*param=*/0});
  Status s = (*log)->Flush();
  EXPECT_FALSE(s.ok());
  EXPECT_EQ((*log)->flush_failures(), 1u);
  EXPECT_EQ((*log)->flush_count(), 0u);
  EXPECT_EQ((*log)->end_of_stable_log(), 0u);

  // The point disarmed itself after firing; the retry succeeds and the
  // stable log holds each record exactly once, at its original LSN.
  ASSERT_OK((*log)->Flush());
  EXPECT_EQ((*log)->flush_failures(), 1u);
  EXPECT_EQ((*log)->flush_count(), 1u);

  auto reader = LogReader::Open(LogPath(), 0, kInvalidLsn);
  ASSERT_TRUE(reader.ok());
  LogRecord rec;
  Lsn lsn = 0;
  ASSERT_TRUE((*reader)->Next(&rec, &lsn));
  EXPECT_EQ(rec.txn, 1u);
  EXPECT_EQ(lsn, first);
  ASSERT_TRUE((*reader)->Next(&rec, nullptr));
  EXPECT_EQ(rec.txn, 2u);
  EXPECT_FALSE((*reader)->Next(&rec, nullptr));
  crashpoint::DisarmAll();
}

TEST_F(SystemLogTest, FrameBytesOnDiskAreLenCrcPayload) {
  // Pins the on-disk frame byte for byte against an external CRC-32C
  // vector, whichever CRC tier staged it: [u32 len][u32 crc32c][payload],
  // little-endian, then the preallocated zeros.
  {
    auto log = SystemLog::Open(LogPath());
    ASSERT_TRUE(log.ok());
    (*log)->Append("abc");
    ASSERT_OK((*log)->Flush());
  }
  std::string contents;
  ASSERT_OK(ReadFileToString(LogPath(), &contents));
  ASSERT_GE(contents.size(), 16u);
  EXPECT_EQ(contents.substr(0, 11),
            std::string("\x03\x00\x00\x00\xB7\x3F\x4B\x36"
                        "abc",
                        11));
  EXPECT_EQ(contents.substr(11, 5), std::string(5, '\0'));
}

TEST_F(SystemLogTest, FrameBuiltInPlaceMatchesPinnedBytes) {
  // AppendFrame builds the frame FrameBytesOnDiskAreLenCrcPayload pins, at
  // the end of whatever the buffer already holds, and AppendFrames stages
  // it byte for byte.
  const std::string pinned("\x03\x00\x00\x00\xB7\x3F\x4B\x36"
                           "abc",
                           11);
  std::string buf = "prefix";
  AppendFrame(
      &buf, [](std::string* dst, Slice p) { dst->append(p.data(), p.size()); },
      Slice("abc"));
  ASSERT_EQ(buf.size(), 6u + pinned.size());
  EXPECT_EQ(buf.substr(0, 6), "prefix");
  EXPECT_EQ(buf.substr(6), pinned);
  {
    auto log = SystemLog::Open(LogPath());
    ASSERT_TRUE(log.ok());
    EXPECT_EQ((*log)->AppendFrames(Slice(buf.data() + 6, pinned.size())), 0u);
    ASSERT_OK((*log)->Flush());
  }
  std::string contents;
  ASSERT_OK(ReadFileToString(LogPath(), &contents));
  EXPECT_EQ(contents.substr(0, pinned.size()), pinned);
}

TEST_F(SystemLogTest, AppendFramesRunMatchesSingleAppends) {
  // The transaction path (records framed in place, staged as one run) and
  // the single-record path write identical bytes at identical LSNs.
  std::vector<std::string> payloads(3);
  EncodeBeginTxn(&payloads[0], 7);
  EncodePhysRedo(&payloads[1], 7, 4096, Slice("after"), nullptr);
  EncodeCommitTxn(&payloads[2], 7);
  std::string run;
  AppendFrame(&run, EncodeBeginTxn, TxnId{7});
  AppendFrame(&run, EncodePhysRedo, TxnId{7}, DbPtr{4096}, Slice("after"),
              nullptr);
  AppendFrame(&run, EncodeCommitTxn, TxnId{7});
  const std::string single_path = LogPath() + ".single";
  {
    auto framed = SystemLog::Open(LogPath());
    auto single = SystemLog::Open(single_path);
    ASSERT_TRUE(framed.ok() && single.ok());
    EXPECT_EQ((*framed)->AppendFrames(run), 0u);
    EXPECT_EQ((*framed)->CurrentLsn(), run.size());
    EXPECT_EQ((*framed)->bytes_appended(), run.size());
    for (const std::string& p : payloads) (*single)->Append(p);
    EXPECT_EQ((*single)->CurrentLsn(), run.size());
    ASSERT_OK((*framed)->Flush());
    ASSERT_OK((*single)->Flush());
  }
  std::string framed_bytes, single_bytes;
  ASSERT_OK(ReadFileToString(LogPath(), &framed_bytes));
  ASSERT_OK(ReadFileToString(single_path, &single_bytes));
  EXPECT_EQ(framed_bytes.substr(0, run.size()), run);
  EXPECT_EQ(single_bytes.substr(0, run.size()), run);
}

TEST_F(SystemLogTest, FullQueueDrainsWithoutAFlush) {
  // Appends alone can fill the group-commit queue: a run of aborted
  // transactions stages redo but never flushes. Each payload here passes
  // the publish threshold, so every Append publishes one batch, and past
  // the queue's capacity the appender must not wait forever for a flush.
  auto log = SystemLog::Open(LogPath());
  ASSERT_TRUE(log.ok());
  constexpr int kBatches = 1100;  // More than the queue holds (1024).
  const std::string payload(33 << 10, 'q');
  // The appender holds nothing of this frame by reference, so a wedged
  // one can be detached and the binary's later tests still run.
  SystemLog* raw = log->get();
  auto done = std::make_shared<std::atomic<bool>>(false);
  std::thread appender([raw, payload, done] {
    for (int i = 0; i < kBatches; ++i) raw->Append(payload);
    *done = true;
  });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (!*done && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  if (!*done) {
    appender.detach();
    (void)log->release();  // The detached appender still uses the log.
    FAIL() << "appender stuck on a full queue";
  }
  appender.join();
  ASSERT_OK((*log)->Flush());
  EXPECT_EQ((*log)->end_of_stable_log(), (*log)->CurrentLsn());
  EXPECT_EQ((*log)->CurrentLsn(),
            uint64_t{kBatches} * (kFrameHeaderBytes + payload.size()));
}

TEST_F(SystemLogTest, BytesAppendedAccounting) {
  auto log = SystemLog::Open(LogPath());
  ASSERT_TRUE(log.ok());
  EXPECT_EQ((*log)->bytes_appended(), 0u);
  (*log)->Append("12345");
  EXPECT_EQ((*log)->bytes_appended(), 8u + 5u);  // Frame header + payload.
}

// ---------- Streaming reads over logs several read windows long ----------

/// After-image of record `txn` in the multi-window logs: `n` bytes that
/// differ per record, so a misplaced window shows up as wrong bytes.
std::string AfterImage(TxnId txn, size_t n) {
  std::string after(n, '\0');
  for (size_t i = 0; i < n; ++i) {
    after[i] = static_cast<char>((txn * 131 + i * 7) & 0xFF);
  }
  return after;
}

/// Flips the `mask` bits of the byte at `off` of the file at `path`.
void FlipByte(const std::string& path, uint64_t off, char mask) {
  std::string contents;
  ASSERT_OK(ReadFileToString(path, &contents));
  ASSERT_LT(off, contents.size());
  contents[off] = static_cast<char>(contents[off] ^ mask);
  ASSERT_OK(WriteFileAtomic(path, contents));
}

uint64_t FileSize(const std::string& path) {
  std::string contents;
  EXPECT_OK(ReadFileToString(path, &contents));
  return contents.size();
}

class MultiWindowLogTest : public SystemLogTest {
 protected:
  /// Appends PhysRedo records txn 1..n (after-image sizes from `sizes`,
  /// cycled) and flushes; fills lsns_, ends_ and after_sizes_ and returns
  /// the stable end.
  Lsn WriteLog(size_t n, const std::vector<size_t>& sizes) {
    auto log = SystemLog::Open(LogPath());
    if (!log.ok()) {
      ADD_FAILURE() << log.status().ToString();
      return 0;
    }
    for (size_t i = 0; i < n; ++i) {
      const TxnId txn = i + 1;
      after_sizes_.push_back(sizes[i % sizes.size()]);
      std::string payload;
      EncodePhysRedo(&payload, txn, 64 * txn,
                     AfterImage(txn, after_sizes_.back()), nullptr);
      lsns_.push_back((*log)->Append(payload));
      ends_.push_back(lsns_.back() + 8 + payload.size());
    }
    EXPECT_OK((*log)->Flush());
    return (*log)->end_of_stable_log();
  }

  /// Reads every record from `start` and checks each against what
  /// WriteLog appended. Returns the number read.
  size_t ReadAndCheck(Lsn start, std::unique_ptr<LogReader>* out = nullptr) {
    auto reader = LogReader::Open(LogPath(), start, kInvalidLsn);
    if (!reader.ok()) {
      ADD_FAILURE() << reader.status().ToString();
      return 0;
    }
    size_t i = 0;
    while (i < lsns_.size() && lsns_[i] < start) ++i;
    const size_t first = i;
    LogRecord rec;
    Lsn lsn = 0;
    while ((*reader)->Next(&rec, &lsn)) {
      EXPECT_LT(i, lsns_.size());
      if (i >= lsns_.size()) break;
      EXPECT_EQ(lsn, lsns_[i]);
      EXPECT_EQ(rec.txn, i + 1);
      EXPECT_TRUE(rec.after == AfterImage(i + 1, after_sizes_[i]))
          << "after-image of txn " << i + 1;
      ++i;
    }
    EXPECT_OK((*reader)->status());
    if (out != nullptr) *out = std::move(reader).value();
    return i - first;
  }

  std::vector<Lsn> lsns_;
  std::vector<Lsn> ends_;  ///< One past each frame.
  std::vector<size_t> after_sizes_;
};

TEST_F(MultiWindowLogTest, FramesStraddlingWindowBoundariesReadIntact) {
  // ~3 KiB frames never tile 1 MiB evenly, so frames straddle the end of
  // every window the reader fills.
  const Lsn stable = WriteLog(1500, {3001});
  ASSERT_GT(stable, 4 * kLogReadWindowBytes);
  bool straddles = false;
  for (size_t i = 0; i < lsns_.size(); ++i) {
    straddles |= lsns_[i] < kLogReadWindowBytes &&
                 ends_[i] > kLogReadWindowBytes;
  }
  ASSERT_TRUE(straddles);

  std::unique_ptr<LogReader> reader;
  EXPECT_EQ(ReadAndCheck(0, &reader), lsns_.size());
  EXPECT_EQ(reader->position(), stable);
}

TEST_F(MultiWindowLogTest, FrameLargerThanWindowReadsWhole) {
  // Small frames, then one PhysRedo whose after-image is 2.5 windows, then
  // small frames again: the window grows for that one frame mid-stream.
  std::vector<size_t> sizes(400, 1000);
  sizes.push_back(kLogReadWindowBytes * 5 / 2);
  sizes.resize(sizes.size() + 400, 1000);
  const Lsn stable = WriteLog(sizes.size(), sizes);
  ASSERT_GT(ends_[400] - lsns_[400], 2 * kLogReadWindowBytes);

  std::unique_ptr<LogReader> reader;
  EXPECT_EQ(ReadAndCheck(0, &reader), sizes.size());
  EXPECT_EQ(reader->position(), stable);

  // The open scan walks the same frames to the same end.
  auto scan = SystemLog::ScanFile(LogPath());
  ASSERT_TRUE(scan.ok());
  EXPECT_EQ(scan->valid_bytes, stable);
  EXPECT_FALSE(scan->damaged);
}

TEST_F(MultiWindowLogTest, ReaderStartedPastFirstWindow) {
  WriteLog(1500, {3001});
  size_t k = 0;
  while (lsns_[k] <= 2 * kLogReadWindowBytes + 12345) ++k;
  EXPECT_EQ(ReadAndCheck(lsns_[k]), lsns_.size() - k);

  // A limit past the start stops the reader exactly there.
  auto limited = LogReader::Open(LogPath(), lsns_[k], lsns_[k + 5]);
  ASSERT_TRUE(limited.ok());
  LogRecord rec;
  size_t n = 0;
  while ((*limited)->Next(&rec, nullptr)) ++n;
  EXPECT_EQ(n, 5u);
  EXPECT_EQ((*limited)->position(), lsns_[k + 5]);
  EXPECT_OK((*limited)->status());
}

TEST_F(MultiWindowLogTest, PayloadBitFlipPastFirstWindowIsDamageThere) {
  const Lsn stable = WriteLog(1500, {3001});
  size_t k = 0;
  while (lsns_[k] <= kLogReadWindowBytes * 3 / 2) ++k;
  FlipByte(LogPath(), lsns_[k] + 8 + 100, 0x04);
  const uint64_t file_bytes = FileSize(LogPath());
  ASSERT_GT(file_bytes, stable);  // Preallocated zeros follow the frames.

  auto scan = SystemLog::ScanFile(LogPath());
  ASSERT_TRUE(scan.ok());
  EXPECT_EQ(scan->valid_bytes, lsns_[k]);
  EXPECT_EQ(scan->file_bytes, file_bytes);
  EXPECT_TRUE(scan->damaged);
  EXPECT_EQ(scan->damage_off, lsns_[k]);

  // Open reports the same scan and truncates the log at the damage.
  {
    auto log = SystemLog::Open(LogPath());
    ASSERT_TRUE(log.ok());
    EXPECT_EQ((*log)->end_of_stable_log(), lsns_[k]);
    EXPECT_TRUE((*log)->tail_scan().damaged);
    EXPECT_EQ((*log)->tail_scan().damage_off, lsns_[k]);
    EXPECT_EQ((*log)->tail_scan().valid_bytes, lsns_[k]);
  }
  EXPECT_EQ(FileSize(LogPath()), lsns_[k]);
}

TEST_F(MultiWindowLogTest, LengthWordFlipPastFirstWindowIsDamageThere) {
  // A flipped length word makes the frame look torn (it runs past the
  // file); the bounded resync finds the next frame, which proves damage.
  WriteLog(1500, {3001});
  size_t k = 0;
  while (lsns_[k] <= kLogReadWindowBytes * 5 / 2) ++k;
  FlipByte(LogPath(), lsns_[k] + 3, 0x40);

  auto scan = SystemLog::ScanFile(LogPath());
  ASSERT_TRUE(scan.ok());
  EXPECT_EQ(scan->valid_bytes, lsns_[k]);
  EXPECT_TRUE(scan->damaged);
  EXPECT_EQ(scan->damage_off, lsns_[k]);
}

TEST_F(MultiWindowLogTest, ZeroTailBeyondWindowBoundaryIsCleanEnd) {
  const Lsn stable = WriteLog(800, {3001});
  ASSERT_GT(stable, 2 * kLogReadWindowBytes);
  // Zeros from the stable end across several window boundaries.
  ASSERT_EQ(::truncate(LogPath().c_str(),
                       static_cast<off_t>(stable + 3 * kLogReadWindowBytes)),
            0);

  auto scan = SystemLog::ScanFile(LogPath());
  ASSERT_TRUE(scan.ok());
  EXPECT_EQ(scan->valid_bytes, stable);
  EXPECT_EQ(scan->file_bytes, stable + 3 * kLogReadWindowBytes);
  EXPECT_FALSE(scan->damaged);
  EXPECT_TRUE(scan->zero_tail);

  std::unique_ptr<LogReader> reader;
  EXPECT_EQ(ReadAndCheck(0, &reader), lsns_.size());
  EXPECT_EQ(reader->position(), stable);

  {
    auto log = SystemLog::Open(LogPath());
    ASSERT_TRUE(log.ok());
    EXPECT_EQ((*log)->end_of_stable_log(), stable);
  }
  EXPECT_EQ(FileSize(LogPath()), stable);
}

TEST_F(MultiWindowLogTest, LengthFlipBeforeLargerThanWindowFrameIsDamage) {
  // The resync finds the next frame's header inside its 1 MiB window, but
  // that frame's payload runs far past the window: its CRC is streamed.
  std::vector<size_t> sizes(400, 1000);
  sizes.push_back(kLogReadWindowBytes * 5 / 2);
  sizes.resize(sizes.size() + 10, 1000);
  WriteLog(sizes.size(), sizes);
  FlipByte(LogPath(), lsns_[399] + 3, 0x40);

  auto scan = SystemLog::ScanFile(LogPath());
  ASSERT_TRUE(scan.ok());
  EXPECT_EQ(scan->valid_bytes, lsns_[399]);
  EXPECT_TRUE(scan->damaged);
  EXPECT_EQ(scan->damage_off, lsns_[399]);
}

/// The scan over the whole file held in memory, which the streaming
/// ScanFile must agree with field for field: the valid frame prefix, then
/// the torn-vs-damaged rules (a complete frame failing its CRC, or a frame
/// that verifies within 1 MiB / 1024 CRC attempts of the stop offset).
WalTailScan WholeFileScan(const std::string& f) {
  auto u32 = [&](uint64_t off) { return DecodeFixed32(f.data() + off); };
  auto crc_ok = [&](uint64_t off, uint32_t len) {
    return Crc32c(f.data() + off + 8, len) == u32(off + 4);
  };
  WalTailScan scan;
  scan.file_bytes = f.size();
  uint64_t pos = 0;
  while (pos + 8 <= f.size() && !(u32(pos) == 0 && u32(pos + 4) == 0) &&
         pos + 8 + u32(pos) <= f.size() && crc_ok(pos, u32(pos))) {
    pos += 8 + u32(pos);
  }
  scan.valid_bytes = pos;
  if (pos == f.size()) return scan;
  if (pos + 8 <= f.size() && !(u32(pos) == 0 && u32(pos + 4) == 0) &&
      pos + 8 + u32(pos) <= f.size()) {
    scan.damaged = true;
    scan.damage_off = pos;
    return scan;
  }
  const uint64_t end = std::min<uint64_t>(f.size(), pos + (1 << 20));
  int attempts = 0;
  for (uint64_t off = pos + 1; off + 8 <= end && attempts < 1024; ++off) {
    const uint32_t len = u32(off);
    if (len == 0 || len > f.size() || off + 8 + len > f.size()) continue;
    ++attempts;
    if (crc_ok(off, len)) {
      scan.damaged = true;
      scan.damage_off = pos;
      return scan;
    }
  }
  scan.zero_tail = f.find_first_not_of('\0', pos) >= end;
  return scan;
}

TEST_F(MultiWindowLogTest, ScanFileMatchesWholeFileScanUnderRandomDamage) {
  // Mixed frame sizes, one larger than the window, so damage lands before,
  // inside and after window boundaries and resync windows.
  WriteLog(24, {900, 3001, 17, 64000, 5, 250000, 1300000, 41});
  std::string clean;
  ASSERT_OK(ReadFileToString(LogPath(), &clean));
  Random rng(2026);
  int damaged = 0;
  int torn = 0;
  for (int iter = 0; iter < 64; ++iter) {
    std::string f = clean;
    const uint64_t at = rng.Uniform(f.size());
    switch (iter % 4) {
      case 0:  // One bit flip.
        f[at] = static_cast<char>(f[at] ^ (1 << rng.Uniform(8)));
        break;
      case 1:  // A torn end.
        f.resize(at);
        break;
      case 2: {  // Zeroed bytes.
        const uint64_t n =
            std::min<uint64_t>(1 + rng.Uniform(5000), f.size() - at);
        f.replace(at, n, n, '\0');
        break;
      }
      default:  // Garbage.
        for (uint64_t i = at; i < std::min<uint64_t>(f.size(), at + 64); ++i) {
          f[i] = static_cast<char>(rng.Next32());
        }
        break;
    }
    ASSERT_OK(WriteFileAtomic(LogPath(), f));
    auto scan = SystemLog::ScanFile(LogPath());
    ASSERT_TRUE(scan.ok()) << scan.status().ToString();
    const WalTailScan want = WholeFileScan(f);
    EXPECT_EQ(scan->valid_bytes, want.valid_bytes) << "iter " << iter;
    EXPECT_EQ(scan->file_bytes, want.file_bytes) << "iter " << iter;
    EXPECT_EQ(scan->damaged, want.damaged) << "iter " << iter;
    EXPECT_EQ(scan->damage_off, want.damage_off) << "iter " << iter;
    EXPECT_EQ(scan->zero_tail, want.zero_tail) << "iter " << iter;
    damaged += want.damaged;
    torn += !want.damaged && want.valid_bytes < want.file_bytes;
  }
  // Both verdicts occur, so the comparison is not vacuous.
  EXPECT_GT(damaged, 0);
  EXPECT_GT(torn, 0);
}

TEST_F(SystemLogTest, ReadErrorIsIoErrorNeverEmptyLogOrTruncation) {
  // A directory opens read-only but every pread fails (EISDIR).
  ASSERT_EQ(::mkdir(LogPath().c_str(), 0755), 0);
  ASSERT_OK(WriteFileAtomic(LogPath() + "/entry", "x"));
  struct stat st;
  ASSERT_EQ(::stat(LogPath().c_str(), &st), 0);
  ASSERT_GE(st.st_size, 8);  // So the reader has a frame header to read.

  auto reader = LogReader::Open(LogPath(), 0, kInvalidLsn);
  ASSERT_TRUE(reader.ok());
  LogRecord rec;
  EXPECT_FALSE((*reader)->Next(&rec, nullptr));
  EXPECT_EQ((*reader)->status().code(), Status::Code::kIoError);

  auto scan = SystemLog::ScanFile(LogPath());
  ASSERT_FALSE(scan.ok());
  EXPECT_EQ(scan.status().code(), Status::Code::kIoError);

  auto log = SystemLog::Open(LogPath());
  ASSERT_FALSE(log.ok());
  EXPECT_EQ(log.status().code(), Status::Code::kIoError);
  EXPECT_TRUE(FileExists(LogPath() + "/entry"));
}

}  // namespace
}  // namespace cwdb
