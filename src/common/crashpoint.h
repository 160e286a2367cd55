#ifndef CWDB_COMMON_CRASHPOINT_H_
#define CWDB_COMMON_CRASHPOINT_H_

#include <sys/uio.h>

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/status.h"

namespace cwdb {
namespace crashpoint {

/// Crash points: named fault sites compiled into every durability boundary
/// of the engine (WAL pwrite/fdatasync, checkpoint page writes and fsync,
/// checkpoint meta, the anchor toggle, archive copies). A crash-point
/// torture run arms one point and drives a workload; the point then either
/// kills the process mid-operation, fails the I/O, tears the write, or
/// corrupts it — the four failure shapes a real system must survive.
///
/// Arming is per-process (the registry is a process-wide singleton) via
/// Arm()/ArmFromString(), or via the environment:
///
///   CWDB_CRASHPOINT="wal.flush.fdatasync=abort"
///   CWDB_CRASHPOINT="ckpt.page.pwrite=torn:3:100,ckpt.meta.rename=eio"
///
/// parsed once, at the first crash-point hit. Every hit of every point is
/// counted whether or not it fires, so a torture driver can prove its
/// workload actually reaches the boundary it is testing.

/// What an armed point does when its countdown expires. A point fires once
/// and disarms itself (so a failed I/O can be retried cleanly).
enum class Mode {
  kOff,        ///< Not armed.
  kAbort,      ///< _exit(kCrashExitCode) before the operation runs.
  kEio,        ///< Fail with an injected IoError; the I/O is not performed.
  kTornWrite,  ///< Write only a prefix of the buffer, then abort. At a
               ///< non-write point this degrades to kAbort.
  kBitFlip,    ///< Flip one bit of the buffer, perform the write, continue.
               ///< At a non-write point this is a no-op.
};

/// Exit code of injected aborts, so a supervising process can tell an
/// intentional crash from any other death.
constexpr int kCrashExitCode = 42;

struct Spec {
  Mode mode = Mode::kOff;
  /// Fires on the countdown-th hit of the point after arming (1 = next).
  uint32_t countdown = 1;
  /// kTornWrite: bytes of the buffer to keep (0 = half).
  /// kBitFlip: bit index into the buffer (taken modulo the buffer size).
  uint64_t param = 0;
};

void Arm(const std::string& name, const Spec& spec);
void Disarm(const std::string& name);
void DisarmAll();

/// Observes armed-set changes: called with a rendered "name=mode:countdown"
/// comma list (empty string = nothing armed) on every Arm/Disarm and on a
/// point's one-shot self-disarm, plus once at installation with the current
/// set. The flight recorder mirrors this into the black box so a postmortem
/// shows which points were live when the process died. Called under the
/// registry lock: the observer must not call back into crashpoint:: and
/// must be async-light (the flight recorder's seqlocked text store is).
/// Pass nullptr to uninstall. Process-wide, like the registry itself.
void SetArmObserver(std::function<void(const std::string&)> observer);

/// Parses and arms one or more comma-separated specs of the form
/// "name=mode[:countdown[:param]]", mode in {abort, eio, torn, bitflip}.
Status ArmFromString(const std::string& specs);

/// Times `name` has been reached since process start (fired or not).
uint64_t Hits(const std::string& name);

/// Times any armed point has fired. Only the surviving modes (kEio,
/// kBitFlip) can observe a non-zero value — the others never return.
uint64_t Fired();

/// Every crash point compiled into the engine, in stable order; the
/// torture matrix sweeps this list. Keep in sync with the call sites.
const std::vector<std::string>& AllPoints();

/// True if the point wraps a write (kTornWrite / kBitFlip meaningful).
bool IsWritePoint(const std::string& name);

/// A non-write durability boundary (fsync, rename, ftruncate). Returns an
/// injected IoError in kEio mode, dies in kAbort/kTornWrite mode, OK
/// otherwise.
Status Check(const char* name);

/// A full positional write through a crash boundary: PWriteAll with the
/// armed mode applied first — kEio fails without writing, kAbort dies
/// before writing, kTornWrite writes a prefix and dies, kBitFlip flips a
/// bit and carries on.
Status InjectedPWrite(const char* name, int fd, const void* data, size_t len,
                      uint64_t offset);

/// InjectedPWrite over the `iovcnt` buffers of `iov` laid end to end: one
/// hit of the point for the lot, and one gathered write (PWriteVAll) when
/// the point is not armed. `iov` may be modified.
Status InjectedPWriteV(const char* name, int fd, struct iovec* iov, int iovcnt,
                       uint64_t offset);

}  // namespace crashpoint
}  // namespace cwdb

#endif  // CWDB_COMMON_CRASHPOINT_H_
