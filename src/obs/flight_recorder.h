#ifndef CWDB_OBS_FLIGHT_RECORDER_H_
#define CWDB_OBS_FLIGHT_RECORDER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "common/result.h"
#include "common/status.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "storage/shard_map.h"

namespace cwdb {

/// Crash-surviving black box (DESIGN.md §13): a small mmap'd MAP_SHARED
/// file (`blackbox.bin`) in the database directory that holds the
/// volatile diagnostic state a crash would otherwise destroy — the
/// event-trace ring itself, the latest metrics sample, per-shard WAL
/// staging frontiers and the durable LSN, the armed crash points, and the
/// watchdog's degradation string. Because the mapping is shared, every
/// store lands in the page cache immediately; a process death at any
/// instant (SIGKILL, _exit at a crash point, a wild store taking the
/// process down) leaves the bytes for the kernel to write back. All
/// mirrors are written with the same lock-free disciplines as their live
/// counterparts (sequence-ticketed slots, seqlocks, release-publish) so
/// the hot paths take no new locks and a torn-at-death slot is detected,
/// not misread.
///
/// The optional fatal-signal tier (InstallFatalHandler) appends a crash
/// record — signal, faulting address, arena attribution by ShardMap
/// arithmetic, and a backtrace via backtrace_symbols_fd on the pre-opened
/// fd — then restores the prior disposition and lets the signal re-raise,
/// so sanitizer/injector handlers installed earlier keep working. The
/// handler is async-signal-safe: it runs on a sigaltstack, performs only
/// plain stores into the mapping plus write/lseek on the kept-open fd,
/// and never allocates or takes a lock (backtrace() is preloaded at
/// install time, where its one-time dynamic-linker allocation is legal).
///
/// Full table/record attribution of an arena fault needs the recovered
/// image and therefore happens at the *next* open: Database stashes an
/// unclean black box, rotates it to `blackbox.prev.bin`, and files an
/// IncidentSource::kCrash dossier once recovery has rebuilt the image
/// (src/obs/postmortem.h decodes; `cwdb_ctl postmortem` renders).
namespace blackbox {

/// File layout, version 1. Fixed offsets so the decoder, the signal
/// handler and the hot-path mirrors agree without any runtime framing.
inline constexpr char kMagic[8] = {'C', 'W', 'B', 'B', 'O', 'X', '0', '1'};
inline constexpr uint32_t kVersion = 1;
inline constexpr uint64_t kTotalBytes = 64 * 1024;

inline constexpr uint64_t kHeaderOff = 0;
inline constexpr uint64_t kHeaderBytes = 256;
/// The header CRC covers only the immutable identity prefix; fields at or
/// past kHeaderMutableOff (clean-shutdown flag) change after create.
inline constexpr uint64_t kHeaderCrcBytes = 96;
inline constexpr uint64_t kShardLsnOff = 256;    ///< kMaxShards u64 pairs.
inline constexpr uint64_t kMaxShards = 64;
inline constexpr uint64_t kGlobalLsnOff = 1280;  ///< durable, logical end.
inline constexpr uint64_t kStatusOff = 2048;     ///< 3 seqlock'd text slots.
inline constexpr uint64_t kStatusSlotBytes = 512;
inline constexpr uint64_t kStatusTextBytes = kStatusSlotBytes - 8;
inline constexpr uint64_t kCrashOff = 4096;      ///< One crash record.
inline constexpr uint64_t kTraceOff = 8192;      ///< The event ring.
inline constexpr uint64_t kTraceSlots = 256;     ///< Power of two.
inline constexpr uint64_t kTraceSlotBytes = 64;
inline constexpr uint64_t kSampleOff = 24576;    ///< Latest metrics sample.
inline constexpr uint64_t kSampleBytes = 24576;
inline constexpr uint64_t kSampleEntryBytes = 64;
inline constexpr uint64_t kSampleNameBytes = 52;
inline constexpr uint64_t kSampleHeaderBytes = 32;
inline constexpr uint64_t kMaxSampleEntries =
    (kSampleBytes - kSampleHeaderBytes) / kSampleEntryBytes;
/// Last section on purpose: backtrace_symbols_fd writes through the fd at
/// this offset, and a pathologically long symbol dump then spills past EOF
/// (extending the file) instead of overwriting a live section.
inline constexpr uint64_t kBacktraceOff = 49152;
inline constexpr uint64_t kBacktraceBytes = kTotalBytes - kBacktraceOff;

/// Header field offsets (within [0, kHeaderBytes)). The prefix up to
/// kHeaderCrcBytes is immutable after create and covered by the CRC at
/// kHdrCrc (computed with the CRC field itself zeroed); the mutable
/// fields (clean-shutdown flag, open wall time) live past it.
inline constexpr uint64_t kHdrMagic = 0;
inline constexpr uint64_t kHdrVersion = 8;
inline constexpr uint64_t kHdrCrc = 12;
inline constexpr uint64_t kHdrTotalBytes = 16;
inline constexpr uint64_t kHdrBootMono = 24;
inline constexpr uint64_t kHdrBootWall = 32;
inline constexpr uint64_t kHdrPid = 40;
inline constexpr uint64_t kHdrArenaSize = 48;
inline constexpr uint64_t kHdrPageSize = 56;
inline constexpr uint64_t kHdrShardCount = 60;
inline constexpr uint64_t kHdrScheme = 64;  ///< 31 chars + NUL.
inline constexpr uint64_t kHdrSchemeBytes = 32;
inline constexpr uint64_t kHdrCleanShutdown = 96;
inline constexpr uint64_t kHdrOpenWall = 104;

/// Crash-record field offsets (within [kCrashOff, kCrashOff + 256)).
inline constexpr uint64_t kCrState = 0;
inline constexpr uint64_t kCrSignal = 4;
inline constexpr uint64_t kCrCode = 8;
inline constexpr uint64_t kCrBacktraceLen = 12;
inline constexpr uint64_t kCrFaultAddr = 16;
inline constexpr uint64_t kCrFaultOff = 24;
inline constexpr uint64_t kCrFaultShard = 32;
inline constexpr uint64_t kCrMonoNs = 40;
inline constexpr uint64_t kCrWallNs = 48;

/// The trace section is the event ring itself: a SeqRing<TraceSlot>, one
/// ticket word then the TraceSlot encoding per slot (obs/trace.h).
static_assert(EventTrace::kSlots == kTraceSlots &&
                  SeqRing<TraceSlot>::kSlotBytes == kTraceSlotBytes,
              "the event ring must fill the trace section exactly");

/// Status-slot indices. Slot 2 is reserved and left zero: the section
/// keeps three slots so the v1 offsets stay put.
enum class StatusSlot : uint32_t {
  kArmedCrashpoints = 0,
  kWatchdog = 1,
};
inline constexpr uint32_t kStatusSlots = 3;

/// Crash-record publication states (the `state` word).
inline constexpr uint32_t kCrashEmpty = 0;
inline constexpr uint32_t kCrashWriting = 1;
inline constexpr uint32_t kCrashValid = 2;

/// `fault_off` / `fault_shard` value meaning "not in the arena".
inline constexpr uint64_t kNoFaultOff = UINT64_MAX;

}  // namespace blackbox

/// Static identity written into the black-box header at create time, so
/// the postmortem decoder can interpret offsets without the database.
struct FlightRecorderInfo {
  uint64_t arena_size = 0;
  uint32_t page_size = 0;
  uint32_t shard_count = 0;
  std::string scheme;  ///< ProtectionSchemeName (truncated to 31 chars).
  uint64_t boot_mono_ns = 0;
  uint64_t boot_wall_ns = 0;
};

struct FlightRecorderOptions {
  /// Maintain blackbox.bin. Costs one mmap'd 64 KiB file per database and
  /// a handful of plain stores on the instrumented hot paths.
  bool enabled = true;
  /// Install the process-wide fatal-signal handler (SIGSEGV, SIGBUS,
  /// SIGABRT, SIGILL, SIGFPE) that appends a crash record before chaining
  /// to the prior disposition. Process-global state: the last database to
  /// install wins; off by default so embedding applications opt in.
  bool install_fatal_handler = false;
};

class FlightRecorder {
 public:
  /// Creates (truncating) `path` and maps it. The caller is responsible
  /// for rotating any prior incarnation's box first (see Database::Open).
  static Result<std::unique_ptr<FlightRecorder>> Create(
      const std::string& path, const FlightRecorderInfo& info);

  ~FlightRecorder();
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// The trace section, kTraceSlots zeroed slots: the home of the
  /// database's event ring while this recorder lives (EventTrace::MoveTo).
  uint64_t* trace_section() noexcept {
    return reinterpret_cast<uint64_t*>(map_ + blackbox::kTraceOff);
  }

  // -- Hot-path mirrors (lock-free, called from instrumented sites) --

  /// Last LSN staged by WAL append shard `shard` (one relaxed store).
  void NoteStagedLsn(size_t shard, uint64_t lsn_end) noexcept;

  /// Durable frontier / logical end after a group-commit round.
  void NoteDurableLsn(uint64_t durable, uint64_t logical_end) noexcept;

  /// Replaces one seqlock'd status text (armed crash points, watchdog
  /// degradation). Truncates to the slot size. One writer per slot.
  void NoteStatusText(blackbox::StatusSlot slot,
                      std::string_view text) noexcept;

  /// Rewrites the latest-sample section (seqlock-framed name/value table)
  /// from a registry snapshot. One writer: Database::DumpMetrics, under
  /// its flush mutex — not a hot path.
  void WriteMetricsSample(const MetricsSnapshot& snap) noexcept;

  /// Marks the box as cleanly shut down (Database::Close). A box without
  /// this mark is ingested as a crash by the next open.
  void MarkCleanShutdown() noexcept;

  // -- Fatal-signal tier --

  /// Registers the arena so the handler can attribute an in-arena faulting
  /// address to (offset, shard) with pure arithmetic.
  void SetArena(const uint8_t* base, uint64_t size, const ShardMap* map) {
    arena_base_ = base;
    arena_size_ = size;
    shard_map_ = map;
  }

  /// Installs the fatal-signal handler chain for this recorder (replacing
  /// any previously registered recorder). Preloads backtrace(), sets up a
  /// sigaltstack, and saves the prior sigactions for chaining.
  Status InstallFatalHandler();

  /// Restores the prior sigactions if this recorder's handler is the one
  /// installed. Called automatically from the destructor.
  void UninstallFatalHandler();

  /// True while any FlightRecorder's fatal handler is registered.
  static bool FatalHandlerInstalled();

  int fd() const { return fd_; }
  const std::string& path() const { return path_; }

 private:
  FlightRecorder(std::string path, int fd, uint8_t* map);

  /// Raw little-endian store/load helpers into the mapping. The mirrors
  /// use C++ atomics over properly aligned mapped words; the signal
  /// handler uses the same helpers (relaxed atomic stores are
  /// async-signal-safe).
  std::atomic<uint64_t>* Word64(uint64_t off) noexcept {
    return reinterpret_cast<std::atomic<uint64_t>*>(map_ + off);
  }
  std::atomic<uint32_t>* Word32(uint64_t off) noexcept {
    return reinterpret_cast<std::atomic<uint32_t>*>(map_ + off);
  }

  /// The sigaction-registered handler forwards here (file-local friend).
  friend void FlightRecorderSignalTrampoline(int, void*, void*);

  /// Signal-handler body: fills the crash record for `sig` at `addr`.
  /// Async-signal-safe (plain/atomic stores, write/lseek on fd_).
  void WriteCrashRecord(int sig, int code, const void* addr) noexcept;

  std::string path_;
  int fd_ = -1;
  uint8_t* map_ = nullptr;

  const uint8_t* arena_base_ = nullptr;
  uint64_t arena_size_ = 0;
  const ShardMap* shard_map_ = nullptr;
};

}  // namespace cwdb

#endif  // CWDB_OBS_FLIGHT_RECORDER_H_
