#ifndef CWDB_OBS_TRACE_H_
#define CWDB_OBS_TRACE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/seq_ring.h"

namespace cwdb {

/// Engine events worth a flight-recorder entry. The `a`/`b` payload words
/// are type-specific (documented per enumerator).
enum class TraceEventType : uint8_t {
  kFaultInjected = 0,      ///< a=off, b=len — unprescribed write landed.
  kWritePrevented = 1,     ///< a=off, b=len — hardware scheme trapped it.
  kCorruptionDetected = 2, ///< a=off, b=len — audit implicated this range.
  kPrecheckFailed = 3,     ///< a=off, b=len — read precheck mismatch.
  kAuditPassBegin = 4,     ///< lsn=Audit_SN candidate.
  kAuditPassEnd = 5,       ///< a=regions audited, b=corrupt regions.
  kRecoveryPhase = 6,      ///< a=RecoveryPhase.
  kTxnDeleted = 7,         ///< a=txn id — delete-transaction recovery.
  kGroupCommitFlush = 8,   ///< lsn=new stable end, a=batch bytes.
  kCheckpoint = 9,         ///< lsn=CK_end, a=pages written.
  kMprotectFault = 10,     ///< a=off, b=len — SIGSEGV on protected page.
  kWalTailDamage = 11,     ///< a=damage offset, b=file bytes — a complete
                           ///< WAL frame failed its CRC at open (not a torn
                           ///< tail: valid frames follow the bad one).
  kRepair = 12,            ///< a=off, b=len — region reconstructed in place
                           ///< from its parity group.
};

const char* TraceEventTypeName(TraceEventType type);

/// Inverse of TraceEventTypeName (e.g. for re-decoding persisted metrics
/// JSON). Returns false for an unknown name.
bool TraceEventTypeFromName(const std::string& name, TraceEventType* type);

/// Phases recorded via kRecoveryPhase events.
enum class RecoveryPhase : uint8_t {
  kLoadCheckpoint = 0,
  kRedo = 1,
  kUndo = 2,
  kFinalCheckpoint = 3,
  kDone = 4,
};

const char* RecoveryPhaseName(RecoveryPhase phase);

/// Shard payload value meaning "not attributed to any shard" (events from
/// cross-shard paths: group commit, sweep-wide audit marks).
inline constexpr uint64_t kNoTraceShard = UINT64_MAX;

/// One recorded event. `seq` is a process-lifetime ordinal (older events
/// are overwritten in place once the ring wraps); `t_ns` is NowNs() at
/// record time; `lsn` is the log position the event is anchored to (0 when
/// not applicable); `shard` is the engine shard the event attributes to
/// (kNoTraceShard when the path is not shard-local).
struct TraceEvent {
  uint64_t seq = 0;
  uint64_t t_ns = 0;
  uint64_t lsn = 0;
  uint64_t a = 0;
  uint64_t b = 0;
  uint64_t shard = kNoTraceShard;
  TraceEventType type = TraceEventType::kFaultInjected;
};

/// Decodes an event's type-specific `a`/`b` payload into operator-readable
/// text, e.g. "off=73728 len=64" or "phase=redo". Used by `cwdb_ctl trace`
/// and the dossier's trace-snapshot rendering.
std::string DescribeTraceEvent(const TraceEvent& e);

/// One event-ring slot after its ticket word: the exact bytes of a v1
/// black-box trace slot at offsets 8..64 (DESIGN.md §13), so the ring can
/// live in blackbox.bin unchanged. `crc` is the CRC-32C of the 44 bytes
/// before it; it lets the postmortem decoder reject a slot torn by page
/// writeback after a machine crash (process death cannot tear one: the
/// ticket covers a write in progress).
struct TraceSlot {
  uint64_t t_ns = 0;
  uint64_t lsn = 0;
  uint64_t a = 0;
  uint64_t b = 0;
  uint64_t shard = 0;
  uint32_t type = 0;
  uint32_t crc = 0;
  uint64_t reserved = 0;  ///< Pads the slot to 64 bytes; always zero.
};
static_assert(sizeof(TraceSlot) == 56 && offsetof(TraceSlot, crc) == 44,
              "TraceSlot is the v1 black-box slot layout");

/// The one trace-slot encoding (computes the CRC).
TraceSlot EncodeTraceSlot(const TraceEvent& e);

/// The events resident in an event ring, ascending seq: the one read of
/// one, live or out of a black box. Drops slots whose type is unknown or
/// whose CRC does not verify.
std::vector<TraceEvent> ReadTraceRing(const SeqRing<TraceSlot>& ring);

/// The engine's event trace: a SeqRing of kSlots encoded events. Recording
/// is a fetch_add, a CAS claiming the slot and the slot's word stores — no
/// lock — and readers never block writers. Snapshot() returns the
/// consistent events, oldest first. The ring starts on the heap; with the
/// flight recorder on it moves into the black box's trace section
/// (MoveTo), so each event is written once and still survives the process.
class EventTrace {
 public:
  /// Equal to the black box's trace section.
  static constexpr size_t kSlots = 256;

  EventTrace() : ring_(kSlots) {}
  EventTrace(const EventTrace&) = delete;
  EventTrace& operator=(const EventTrace&) = delete;

  void Record(TraceEventType type, uint64_t lsn = 0, uint64_t a = 0,
              uint64_t b = 0, uint64_t shard = kNoTraceShard);

  /// Consistent events currently resident in the ring, ascending seq.
  std::vector<TraceEvent> Snapshot() const { return ReadTraceRing(ring_); }

  /// Total events ever recorded (>= Snapshot().size(); the excess wrapped
  /// or was dropped).
  uint64_t recorded() const { return ring_.pushed(); }

  /// Moves the ring, with its resident events, into `storage` (kSlots
  /// slots, e.g. FlightRecorder::trace_section()), which must outlive this
  /// trace. Call before any thread can Record.
  void MoveTo(uint64_t* storage) { ring_.MoveTo(storage); }

 private:
  SeqRing<TraceSlot> ring_;
};

}  // namespace cwdb

#endif  // CWDB_OBS_TRACE_H_
