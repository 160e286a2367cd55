#ifndef CWDB_FAULTINJECT_CRASH_HARNESS_H_
#define CWDB_FAULTINJECT_CRASH_HARNESS_H_

#include <string>

#include "common/crashpoint.h"
#include "common/result.h"
#include "common/status.h"

namespace cwdb {

class Database;

namespace crashharness {

/// Fork-based crash-point torture harness, shared by the crash-matrix test
/// and the cwdb_crashtest tool. One case = fork a child that runs a
/// scripted transactional workload with one crash point armed, wait for it
/// to die (or finish), then reopen the database in the parent, run
/// recovery, and assert the durability invariants:
///
///   1. every transaction whose Commit() returned OK before the crash is
///      fully present (the child fsyncs a progress record after each ack);
///   2. every other transaction is all-or-nothing — in particular the
///      deliberately-uncommitted and the explicitly-aborted script
///      transactions are absent;
///   3. a full codeword audit of the recovered image is clean, i.e. the
///      stored codeword table equals what a from-scratch rebuild of the
///      recovered bytes produces;
///   4. the structural integrity sweep reports no violations;
///   5. the checkpoint images mirror the arena (CheckImagesMirrorArena).

/// Child exit codes (crashpoint::kCrashExitCode = injected crash).
constexpr int kDoneExitCode = 7;      ///< Script ran to the end.
constexpr int kOpenFailExitCode = 9;  ///< Database::Open failed (injected).
constexpr int kWorkloadErrorExitCode = 11;  ///< Unexpected script failure.

struct CaseSpec {
  std::string point;
  crashpoint::Mode mode = crashpoint::Mode::kAbort;
  uint32_t countdown = 1;
  /// Arm before Database::Open so points only reached during initial
  /// formatting (ckpt.image.setsize) can fire; otherwise the child arms
  /// after open, so the scripted workload is what drives the point.
  bool arm_before_open = false;
};

struct CaseResult {
  bool crashed = false;   ///< Child died at the injected point.
  int child_exit = -1;    ///< Raw exit code.
  uint64_t committed = 0; ///< Commits acked before the crash.
  std::string detail;     ///< Human-readable summary of the run.
};

/// Runs the scripted workload in `dir` (created if needed), recording
/// commit progress to `progress_path`. Never returns; exits with one of
/// the codes above or dies at the armed crash point.
[[noreturn]] void RunWorkloadChild(const std::string& dir,
                                   const std::string& progress_path,
                                   const CaseSpec& spec);

/// Reopens `dir` (running restart recovery) and checks the invariants
/// against the progress file. `require_committed_survive` is false only
/// for bit-flip cases, where a detected-and-truncated log tail may
/// legitimately drop acked commits (the CRC turns the flip into a torn
/// tail); atomicity and audit cleanliness must still hold.
/// `expect_unclean_box` is true for modes that kill the child at the fire
/// point (abort, torn write): those children `_exit` without destructors,
/// so the flight recorder must read back unclean. Survivable modes (eio,
/// bit flip) may instead fail Database::Open with the injected error and
/// tear down orderly — a clean box, and no crash to verify.
Status VerifyAfterCrash(const std::string& dir,
                        const std::string& progress_path,
                        bool require_committed_survive,
                        bool expect_unclean_box,
                        uint64_t* committed_out = nullptr);

/// Invariant 5. With nothing written to the arena since `db`'s last
/// checkpoint, the active image's file equals the arena byte for byte;
/// after one more checkpoint (taken here), so does the other image's.
/// Checkpoints write only the pages their dirty set names, so a page the
/// set wrongly omits shows up here as a stale page in the file.
Status CheckImagesMirrorArena(Database* db);

/// Fork + workload + wait + verify for one case. `dir` must be fresh.
/// Returns an error Status if the child exited abnormally for the mode,
/// the armed point was never reached, or verification failed.
Result<CaseResult> RunCase(const std::string& dir, const CaseSpec& spec);

}  // namespace crashharness
}  // namespace cwdb

#endif  // CWDB_FAULTINJECT_CRASH_HARNESS_H_
