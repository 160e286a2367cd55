#include "faultinject/crash_harness.h"

#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstring>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <utility>

#include "ckpt/checkpoint.h"
#include "common/coding.h"
#include "common/file_util.h"
#include "core/database.h"
#include "obs/postmortem.h"

namespace cwdb {
namespace crashharness {

namespace {

constexpr uint32_t kRecordSize = 64;
constexpr int kRecsPerTxn = 4;
/// Script transaction indices. 0..8 commit; 90 is left open across a
/// checkpoint (must be rolled back), 91 is explicitly aborted.
constexpr uint64_t kOpenTxnIndex = 90;
constexpr uint64_t kAbortTxnIndex = 91;
constexpr uint64_t kCommittedTxns = 9;

/// Child exits when the script finished but the armed point never fired —
/// the workload does not reach that boundary, so the case proves nothing.
constexpr int kPointMissedExitCode = 13;

DatabaseOptions HarnessOptions(const std::string& dir) {
  DatabaseOptions opts;
  opts.path = dir;
  opts.arena_size = 2ull << 20;
  opts.page_size = 4096;
  opts.protection.scheme = ProtectionScheme::kDataCodeword;
  opts.protection.region_size = 512;
  return opts;
}

/// Deterministic record payload: [txn index u64][record ordinal u64]
/// [pattern bytes] — verification recomputes the pattern and detects any
/// torn, lost or corrupted record byte.
std::string RecordBytes(uint64_t txn_index, uint64_t ordinal) {
  std::string rec;
  PutFixed64(&rec, txn_index);
  PutFixed64(&rec, ordinal);
  while (rec.size() < kRecordSize) {
    rec.push_back(static_cast<char>(
        (txn_index * 131 + ordinal * 17 + rec.size()) & 0xff));
  }
  return rec;
}

/// Appends one line to the progress file and fsyncs it, so the parent can
/// trust every recorded commit ack even across an immediate crash.
void AppendProgress(const std::string& path, const std::string& line) {
  int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (fd < 0) ::_exit(kWorkloadErrorExitCode);
  std::string data = line + "\n";
  if (::write(fd, data.data(), data.size()) !=
      static_cast<ssize_t>(data.size())) {
    ::_exit(kWorkloadErrorExitCode);
  }
  ::fsync(fd);
  ::close(fd);
}

/// One scripted transaction: S <i> before the commit attempt, C <i> after
/// a successful ack. A failed commit (injected EIO surfacing through
/// Flush) is recorded as a comment and the script carries on — the batch
/// stays in the tail and the next flush must cover it exactly once.
void CommitOneTxn(Database* db, TableId table, uint64_t i,
                  const std::string& progress) {
  Result<Transaction*> txn = db->Begin();
  if (!txn.ok()) ::_exit(kWorkloadErrorExitCode);
  for (int j = 0; j < kRecsPerTxn; ++j) {
    if (!db->Insert(*txn, table, RecordBytes(i, j)).ok()) {
      ::_exit(kWorkloadErrorExitCode);
    }
  }
  AppendProgress(progress, "S " + std::to_string(i));
  Status s = db->Commit(*txn);
  if (s.ok()) {
    AppendProgress(progress, "C " + std::to_string(i));
  } else {
    AppendProgress(progress, "# commit " + std::to_string(i) +
                                 " failed: " + s.ToString());
  }
}

/// OK when checkpoint image `which`'s file equals the arena byte for byte;
/// otherwise names the first page that differs.
Status ImageMirrorsArena(Database* db, int which) {
  const DbImage& image = *db->image();
  const std::string path = DbFiles(db->options().path).CkptImage(which);
  std::string file;
  CWDB_RETURN_IF_ERROR(ReadFileToString(path, &file));
  if (file.size() < image.size()) {
    return Status::Internal(path + " is shorter than the arena");
  }
  for (uint64_t off = 0; off < image.size(); off += image.page_size()) {
    if (std::memcmp(file.data() + off, image.At(off), image.page_size()) !=
        0) {
      return Status::Internal(path + " differs from the arena at page " +
                              std::to_string(off / image.page_size()));
    }
  }
  return Status::OK();
}

}  // namespace

Status CheckImagesMirrorArena(Database* db) {
  CWDB_ASSIGN_OR_RETURN(int active, db->checkpointer()->ReadAnchor());
  CWDB_RETURN_IF_ERROR(ImageMirrorsArena(db, active));
  CWDB_RETURN_IF_ERROR(db->Checkpoint());
  return ImageMirrorsArena(db, 1 - active);
}

void RunWorkloadChild(const std::string& dir,
                      const std::string& progress_path,
                      const CaseSpec& spec) {
  crashpoint::Spec arm;
  arm.mode = spec.mode;
  arm.countdown = spec.countdown;
  if (spec.arm_before_open) crashpoint::Arm(spec.point, arm);

  Result<std::unique_ptr<Database>> db = Database::Open(HarnessOptions(dir));
  if (!db.ok()) ::_exit(kOpenFailExitCode);
  if (!spec.arm_before_open) crashpoint::Arm(spec.point, arm);

  // Txn 0: schema + first records.
  Result<Transaction*> txn0 = (*db)->Begin();
  if (!txn0.ok()) ::_exit(kWorkloadErrorExitCode);
  Result<TableId> table = (*db)->CreateTable(*txn0, "t", kRecordSize, 512);
  if (!table.ok()) ::_exit(kWorkloadErrorExitCode);
  for (int j = 0; j < kRecsPerTxn; ++j) {
    if (!(*db)->Insert(*txn0, *table, RecordBytes(0, j)).ok()) {
      ::_exit(kWorkloadErrorExitCode);
    }
  }
  AppendProgress(progress_path, "S 0");
  if ((*db)->Commit(*txn0).ok()) AppendProgress(progress_path, "C 0");

  for (uint64_t i = 1; i <= 3; ++i) {
    CommitOneTxn(db->get(), *table, i, progress_path);
  }

  // A transaction deliberately left open across a checkpoint: its redo
  // reaches the stable log and the checkpointed ATT, so recovery must
  // roll it back.
  Result<Transaction*> open_txn = (*db)->Begin();
  if (!open_txn.ok()) ::_exit(kWorkloadErrorExitCode);
  for (int j = 0; j < kRecsPerTxn; ++j) {
    if (!(*db)->Insert(*open_txn, *table, RecordBytes(kOpenTxnIndex, j))
             .ok()) {
      ::_exit(kWorkloadErrorExitCode);
    }
  }

  Status ck1 = (*db)->Checkpoint();
  if (!ck1.ok()) {
    AppendProgress(progress_path, "# checkpoint 1 failed: " + ck1.ToString());
  }

  for (uint64_t i = 4; i <= 6; ++i) {
    CommitOneTxn(db->get(), *table, i, progress_path);
  }

  // An explicitly aborted transaction: undone before the crash, must stay
  // absent after it.
  Result<Transaction*> abort_txn = (*db)->Begin();
  if (!abort_txn.ok()) ::_exit(kWorkloadErrorExitCode);
  for (int j = 0; j < kRecsPerTxn; ++j) {
    if (!(*db)->Insert(*abort_txn, *table, RecordBytes(kAbortTxnIndex, j))
             .ok()) {
      ::_exit(kWorkloadErrorExitCode);
    }
  }
  if (!(*db)->Abort(*abort_txn).ok()) ::_exit(kWorkloadErrorExitCode);

  Status ck2 = (*db)->Checkpoint();  // Ping-pong: targets the other image.
  if (!ck2.ok()) {
    AppendProgress(progress_path, "# checkpoint 2 failed: " + ck2.ToString());
  }

  Result<Lsn> arch = (*db)->Archive(dir + "/archive");
  if (!arch.ok()) {
    AppendProgress(progress_path,
                   "# archive failed: " + arch.status().ToString());
  }

  for (uint64_t i = 7; i < kCommittedTxns; ++i) {
    CommitOneTxn(db->get(), *table, i, progress_path);
  }

  // Exit without Close(): the parent always recovers from a "crash".
  // Reaching this line in a crashing mode means the point never fired;
  // the distinct exit code lets RunCase report "point missed" precisely.
  ::_exit(crashpoint::Fired() > 0 ? kDoneExitCode : kPointMissedExitCode);
}

Status VerifyAfterCrash(const std::string& dir,
                        const std::string& progress_path,
                        bool require_committed_survive,
                        bool expect_unclean_box,
                        uint64_t* committed_out) {
  std::string progress;
  CWDB_RETURN_IF_ERROR(ReadFileToString(progress_path, &progress,
                                        MissingFile::kTreatAsEmpty));
  std::set<uint64_t> committed;
  std::set<uint64_t> attempted;
  std::istringstream lines(progress);
  std::string tag;
  uint64_t idx;
  for (std::string line; std::getline(lines, line);) {
    std::istringstream fields(line);
    if (!(fields >> tag >> idx)) continue;
    if (tag == "S") attempted.insert(idx);
    if (tag == "C") committed.insert(idx);
  }
  if (committed_out != nullptr) *committed_out = committed.size();

  // The dead child must have left a decodable, unclean black box (the
  // flight recorder is on by default and the child exits without Close()).
  // Read it before the reopen rotates it to blackbox.prev.bin. Absence is
  // tolerated only for children that died before the recorder existed
  // (points armed before Database::Open).
  DbFiles files(dir);
  std::optional<BlackBoxReport> box;
  if (FileExists(files.BlackBox())) {
    Result<BlackBoxReport> decoded = ReadBlackBox(files.BlackBox());
    if (!decoded.ok()) {
      return Status::Internal("black box of the dead child does not decode: " +
                              decoded.status().ToString());
    }
    if (decoded->clean_shutdown) {
      // Dying modes _exit at the fire point — no destructor, so a clean
      // mark there is a recorder bug. A survivable mode can instead fail
      // Database::Open with the injected error; the half-built Database is
      // destructed orderly, the box is honestly clean, and there is no
      // crash for the reopen to ingest.
      if (expect_unclean_box) {
        return Status::Internal("black box claims a clean shutdown of a "
                                "child that never called Close()");
      }
    } else {
      box = std::move(*decoded);
    }
  }

  Result<std::unique_ptr<Database>> db = Database::Open(HarnessOptions(dir));
  if (!db.ok()) {
    // Only a bit-flip case may fail to reopen, and only with a clean
    // Corruption diagnosis — never a crash or a garbled state.
    if (!require_committed_survive && db.status().IsCorruption()) {
      return Status::OK();
    }
    return Status::Internal("reopen after crash failed: " +
                            db.status().ToString());
  }

  if (box.has_value()) {
    // Postmortem consistency: the reopen must have filed a crash dossier,
    // and the durable frontier the drainer last mirrored into the box can
    // never exceed the log prefix recovery replayed. (A bit-flip case may
    // legitimately truncate the valid prefix below the mirror.)
    if ((*db)->crash_incident_id() == 0) {
      return Status::Internal(
          "reopen after an unclean death filed no crash dossier");
    }
    const RecoveryReport& rec = (*db)->last_recovery_report();
    if (require_committed_survive && box->durable_lsn > rec.redo_end) {
      return Status::Internal(
          "black box durable LSN " + std::to_string(box->durable_lsn) +
          " exceeds the recovered log end " + std::to_string(rec.redo_end));
    }
  }

  Result<TableId> table = (*db)->FindTable("t");
  std::map<uint64_t, std::set<uint64_t>> groups;  // txn index -> ordinals.
  if (table.ok()) {
    Result<Transaction*> txn = (*db)->Begin();
    if (!txn.ok()) return txn.status();
    Status s = (*db)->Scan(
        *txn, *table, [&](uint32_t slot, Slice rec) -> Status {
          (void)slot;
          if (rec.size() != kRecordSize) {
            return Status::Internal("bad record size");
          }
          uint64_t i = DecodeFixed64(rec.data());
          uint64_t j = DecodeFixed64(rec.data() + 8);
          std::string expect = RecordBytes(i, j);
          if (Slice(expect) != rec) {
            return Status::Internal("record bytes of txn " +
                                    std::to_string(i) + " do not match");
          }
          if (!groups[i].insert(j).second) {
            return Status::Internal("duplicate record " + std::to_string(i) +
                                    "/" + std::to_string(j));
          }
          return Status::OK();
        });
    CWDB_RETURN_IF_ERROR((*db)->Abort(*txn));
    CWDB_RETURN_IF_ERROR(s);
  } else if (require_committed_survive && !committed.empty()) {
    return Status::Internal("table lost despite acked commits");
  }

  // 1. Acked commits are fully present.
  if (require_committed_survive) {
    for (uint64_t i : committed) {
      if (groups.count(i) == 0) {
        return Status::Internal("committed txn " + std::to_string(i) +
                                " lost");
      }
    }
  }
  // 2. All-or-nothing per transaction; no records from transactions that
  // never attempted a commit (the open and the aborted script txns).
  for (const auto& [i, ordinals] : groups) {
    if (ordinals.size() != kRecsPerTxn) {
      return Status::Internal("txn " + std::to_string(i) + " is partial (" +
                              std::to_string(ordinals.size()) + "/" +
                              std::to_string(kRecsPerTxn) + " records)");
    }
    if (committed.count(i) == 0 && attempted.count(i) == 0) {
      return Status::Internal("records of never-committed txn " +
                              std::to_string(i) + " survived");
    }
  }

  // 3. Clean full audit: every stored codeword equals the codeword a
  // from-scratch rebuild of the recovered bytes would produce.
  Result<AuditReport> audit = (*db)->Audit();
  CWDB_RETURN_IF_ERROR(audit.status());
  if (!audit->clean) {
    return Status::Internal("audit found " +
                            std::to_string(audit->ranges.size()) +
                            " corrupt region(s) after recovery");
  }
  // 4. Structural invariants of the recovered image.
  if (!(*db)->VerifyIntegrity().empty()) {
    return Status::Internal("structural integrity violations after recovery");
  }
  // 5. Both checkpoint images hold the recovered arena once written: the
  // dirty sets rebuilt at load left no stale page behind, whatever the
  // crash interrupted.
  return CheckImagesMirrorArena(db->get());
}

Result<CaseResult> RunCase(const std::string& dir, const CaseSpec& spec) {
  const std::string progress = dir + "/progress.txt";
  CWDB_RETURN_IF_ERROR(MakeDirs(dir));
  pid_t pid = ::fork();
  if (pid < 0) return Status::Internal("fork failed");
  if (pid == 0) RunWorkloadChild(dir, progress, spec);

  int status = 0;
  if (::waitpid(pid, &status, 0) != pid) {
    return Status::Internal("waitpid failed");
  }
  CaseResult result;
  if (!WIFEXITED(status)) {
    return Status::Internal("child died abnormally (signal " +
                            std::to_string(WTERMSIG(status)) + ")");
  }
  result.child_exit = WEXITSTATUS(status);
  result.crashed = result.child_exit == crashpoint::kCrashExitCode;

  using crashpoint::Mode;
  const bool expect_crash =
      spec.mode == Mode::kAbort || spec.mode == Mode::kTornWrite;
  if (expect_crash && !result.crashed) {
    return Status::Internal("point " + spec.point +
                            " never fired (child exit " +
                            std::to_string(result.child_exit) + ")");
  }
  if (!expect_crash && result.child_exit != kDoneExitCode &&
      result.child_exit != kOpenFailExitCode) {
    return Status::Internal("child exit " +
                            std::to_string(result.child_exit) + " for " +
                            spec.point);
  }

  const bool require_committed = spec.mode != Mode::kBitFlip;
  CWDB_RETURN_IF_ERROR(VerifyAfterCrash(dir, progress, require_committed,
                                        /*expect_unclean_box=*/expect_crash,
                                        &result.committed));
  result.detail = spec.point + ": child exit " +
                  std::to_string(result.child_exit) + ", " +
                  std::to_string(result.committed) +
                  " acked commit(s), invariants hold";
  return result;
}

}  // namespace crashharness
}  // namespace cwdb
