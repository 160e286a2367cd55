#ifndef CWDB_OBS_POSTMORTEM_H_
#define CWDB_OBS_POSTMORTEM_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "obs/trace.h"

namespace cwdb {

/// Decoded contents of a blackbox.bin (see obs/flight_recorder.h for the
/// on-disk layout). The decoder is tolerant by design: a slot torn at
/// death, a CRC mismatch or a truncated file drop the affected entries and
/// keep the rest — only a bad magic/header refuses the whole file.

struct BlackBoxCrash {
  bool valid = false;        ///< A crash record was fully published.
  int signal = 0;
  int si_code = 0;
  uint64_t fault_addr = 0;   ///< Raw faulting address (0 when unknown).
  bool fault_in_arena = false;
  uint64_t fault_off = 0;    ///< Arena offset, when fault_in_arena.
  uint64_t fault_shard = 0;  ///< Owning shard, when fault_in_arena.
  uint64_t mono_ns = 0;
  uint64_t wall_ns = 0;
  std::string backtrace;     ///< backtrace_symbols_fd text ("" if none).
};

struct BlackBoxSampleEntry {
  std::string name;
  char kind = 'c';           ///< 'c' counter, 'g' gauge, 'h' histogram p99.
  uint64_t bits = 0;         ///< Raw value ('g': bit-cast int64_t).
};

struct BlackBoxReport {
  // Identity (header).
  uint32_t version = 0;
  uint64_t pid = 0;
  uint64_t boot_mono_ns = 0;
  uint64_t boot_wall_ns = 0;
  uint64_t open_wall_ns = 0;
  uint64_t arena_size = 0;
  uint32_t page_size = 0;
  uint32_t shard_count = 0;
  std::string scheme;
  bool clean_shutdown = false;

  // LSN frontiers as of death.
  uint64_t durable_lsn = 0;
  uint64_t logical_end_lsn = 0;
  std::vector<uint64_t> shard_staged_lsns;  ///< One per shard (<= 64).

  // Status text (dropped when its seqlock was torn at death).
  std::string armed_crashpoints;
  std::string watchdog_status;

  // Mirrored trace-ring tail, consistent slots only, ascending seq.
  std::vector<TraceEvent> events;

  // Latest metrics sample (empty when torn or never written).
  uint64_t sample_mono_ns = 0;
  uint64_t sample_wall_ns = 0;
  std::vector<BlackBoxSampleEntry> sample;

  BlackBoxCrash crash;

  /// Projects a prior-life monotonic stamp to wall time via the boot
  /// anchors recorded in the header; 0 stays 0.
  uint64_t WallFromMono(uint64_t mono_ns) const {
    if (mono_ns == 0 || boot_wall_ns == 0) return 0;
    return boot_wall_ns + (mono_ns - boot_mono_ns);
  }
};

/// Decodes the raw bytes of a black box. Corruption if the magic, version
/// or header CRC does not verify (the file is not a v1 black box);
/// everything else degrades gracefully.
Result<BlackBoxReport> DecodeBlackBox(const std::string& bytes);

/// Reads and decodes `path`. NotFound when the file does not exist.
Result<BlackBoxReport> ReadBlackBox(const std::string& path);

/// Operator-readable rendering of one decoded box (the `cwdb_ctl
/// postmortem` body): identity, crash record + backtrace, LSN frontiers,
/// status text, the trace tail and the top of the last metrics sample.
std::string RenderBlackBox(const BlackBoxReport& report);

}  // namespace cwdb

#endif  // CWDB_OBS_POSTMORTEM_H_
