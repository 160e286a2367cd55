#include "obs/postmortem.h"

#include <csignal>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <vector>

#include "common/crc32.h"
#include "common/file_util.h"
#include "obs/flight_recorder.h"

namespace cwdb {

namespace {

using namespace blackbox;

uint32_t Read32(const std::string& b, uint64_t off) {
  uint32_t v = 0;
  std::memcpy(&v, b.data() + off, 4);
  return v;
}

uint64_t Read64(const std::string& b, uint64_t off) {
  uint64_t v = 0;
  std::memcpy(&v, b.data() + off, 8);
  return v;
}

/// NUL-terminated (or length-capped) string out of a fixed field.
std::string ReadText(const std::string& b, uint64_t off, uint64_t max_len) {
  const char* p = b.data() + off;
  size_t n = 0;
  while (n < max_len && p[n] != '\0') ++n;
  return std::string(p, n);
}

/// Seqlock'd status slot: "" when the writer died mid-update (odd seq).
std::string ReadStatusSlot(const std::string& b, StatusSlot slot) {
  const uint64_t base =
      kStatusOff + static_cast<uint32_t>(slot) * kStatusSlotBytes;
  const uint32_t seq = Read32(b, base + 0);
  if (seq % 2 != 0) return std::string();
  uint32_t len = Read32(b, base + 4);
  if (len > kStatusTextBytes) len = kStatusTextBytes;
  return std::string(b.data() + base + 8, len);
}

const char* SignalName(int sig) {
  switch (sig) {
    case SIGSEGV: return "SIGSEGV";
    case SIGBUS: return "SIGBUS";
    case SIGABRT: return "SIGABRT";
    case SIGILL: return "SIGILL";
    case SIGFPE: return "SIGFPE";
    default: return "signal";
  }
}

}  // namespace

Result<BlackBoxReport> DecodeBlackBox(const std::string& bytes) {
  if (bytes.size() < kTotalBytes) {
    return Status::Corruption("black box truncated: " +
                              std::to_string(bytes.size()) + " bytes");
  }
  if (std::memcmp(bytes.data() + kHdrMagic, kMagic, sizeof(kMagic)) != 0) {
    return Status::Corruption("black box magic mismatch");
  }
  BlackBoxReport r;
  r.version = Read32(bytes, kHdrVersion);
  if (r.version != kVersion) {
    return Status::Corruption("black box version " +
                              std::to_string(r.version) + " unsupported");
  }
  char header[kHeaderCrcBytes];
  std::memcpy(header, bytes.data(), kHeaderCrcBytes);
  std::memset(header + kHdrCrc, 0, 4);
  if (Crc32c(header, kHeaderCrcBytes) != Read32(bytes, kHdrCrc)) {
    return Status::Corruption("black box header CRC mismatch");
  }
  r.boot_mono_ns = Read64(bytes, kHdrBootMono);
  r.boot_wall_ns = Read64(bytes, kHdrBootWall);
  r.pid = Read64(bytes, kHdrPid);
  r.arena_size = Read64(bytes, kHdrArenaSize);
  r.page_size = Read32(bytes, kHdrPageSize);
  r.shard_count = Read32(bytes, kHdrShardCount);
  r.scheme = ReadText(bytes, kHdrScheme, kHdrSchemeBytes - 1);
  r.clean_shutdown = Read32(bytes, kHdrCleanShutdown) != 0;
  r.open_wall_ns = Read64(bytes, kHdrOpenWall);

  r.durable_lsn = Read64(bytes, kGlobalLsnOff + 0);
  r.logical_end_lsn = Read64(bytes, kGlobalLsnOff + 8);
  const uint64_t shards = std::min<uint64_t>(r.shard_count, kMaxShards);
  for (uint64_t s = 0; s < shards; ++s) {
    r.shard_staged_lsns.push_back(Read64(bytes, kShardLsnOff + s * 16));
  }

  r.armed_crashpoints =
      ReadStatusSlot(bytes, StatusSlot::kArmedCrashpoints);
  r.watchdog_status = ReadStatusSlot(bytes, StatusSlot::kWatchdog);

  // The event ring, read through the ring itself from a word-aligned copy.
  std::vector<uint64_t> ring_words(kTraceSlots * kTraceSlotBytes / 8);
  std::memcpy(ring_words.data(), bytes.data() + kTraceOff,
              kTraceSlots * kTraceSlotBytes);
  r.events =
      ReadTraceRing(SeqRing<TraceSlot>(ring_words.data(), kTraceSlots));

  // Latest metrics sample (seqlock'd: dropped wholesale when torn).
  if (Read32(bytes, kSampleOff + 0) % 2 == 0) {
    uint32_t count = Read32(bytes, kSampleOff + 4);
    if (count > kMaxSampleEntries) count = 0;  // Never written / garbage.
    r.sample_mono_ns = Read64(bytes, kSampleOff + 8);
    r.sample_wall_ns = Read64(bytes, kSampleOff + 16);
    for (uint32_t i = 0; i < count; ++i) {
      const uint64_t e = kSampleOff + kSampleHeaderBytes +
                         static_cast<uint64_t>(i) * kSampleEntryBytes;
      BlackBoxSampleEntry entry;
      entry.name = ReadText(bytes, e, kSampleNameBytes - 1);
      entry.kind = static_cast<char>(Read32(bytes, e + kSampleNameBytes));
      entry.bits = Read64(bytes, e + kSampleNameBytes + 4);
      if (entry.name.empty()) continue;
      r.sample.push_back(std::move(entry));
    }
  }

  // Crash record.
  if (Read32(bytes, kCrashOff + kCrState) == kCrashValid) {
    r.crash.valid = true;
    r.crash.signal = static_cast<int>(Read32(bytes, kCrashOff + kCrSignal));
    r.crash.si_code = static_cast<int>(Read32(bytes, kCrashOff + kCrCode));
    r.crash.fault_addr = Read64(bytes, kCrashOff + kCrFaultAddr);
    const uint64_t off = Read64(bytes, kCrashOff + kCrFaultOff);
    if (off != kNoFaultOff) {
      r.crash.fault_in_arena = true;
      r.crash.fault_off = off;
      r.crash.fault_shard = Read64(bytes, kCrashOff + kCrFaultShard);
    }
    r.crash.mono_ns = Read64(bytes, kCrashOff + kCrMonoNs);
    r.crash.wall_ns = Read64(bytes, kCrashOff + kCrWallNs);
    uint64_t bt_len = Read32(bytes, kCrashOff + kCrBacktraceLen);
    bt_len = std::min<uint64_t>(bt_len, bytes.size() - kBacktraceOff);
    if (bt_len > 0) {
      r.crash.backtrace.assign(bytes.data() + kBacktraceOff,
                               static_cast<size_t>(bt_len));
    }
  }
  return r;
}

Result<BlackBoxReport> ReadBlackBox(const std::string& path) {
  if (!FileExists(path)) {
    return Status::NotFound("no black box at " + path);
  }
  std::string bytes;
  CWDB_RETURN_IF_ERROR(ReadFileToString(path, &bytes));
  return DecodeBlackBox(bytes);
}

std::string RenderBlackBox(const BlackBoxReport& r) {
  std::string out;
  char line[256];
  std::snprintf(line, sizeof(line),
                "incarnation: pid=%" PRIu64 " opened=%s scheme=%s shards=%u "
                "arena=%" PRIu64 " page=%u\n",
                r.pid, FormatWallNs(r.open_wall_ns).c_str(), r.scheme.c_str(),
                r.shard_count, r.arena_size, r.page_size);
  out += line;
  std::snprintf(line, sizeof(line), "shutdown: %s\n",
                r.clean_shutdown ? "clean (marked at Close)"
                                 : "UNCLEAN (process died with the box open)");
  out += line;

  if (r.crash.valid) {
    std::snprintf(line, sizeof(line),
                  "crash: %s (si_code=%d) at addr=0x%" PRIx64 " time=%s\n",
                  SignalName(r.crash.signal), r.crash.si_code,
                  r.crash.fault_addr, FormatWallNs(r.crash.wall_ns).c_str());
    out += line;
    if (r.crash.fault_in_arena) {
      std::snprintf(line, sizeof(line),
                    "  faulting address is IN the arena: offset=%" PRIu64
                    " shard=%" PRIu64 "\n",
                    r.crash.fault_off, r.crash.fault_shard);
      out += line;
    } else {
      out += "  faulting address is outside the arena\n";
    }
    if (!r.crash.backtrace.empty()) {
      out += "  backtrace:\n";
      size_t pos = 0;
      while (pos < r.crash.backtrace.size()) {
        size_t eol = r.crash.backtrace.find('\n', pos);
        if (eol == std::string::npos) eol = r.crash.backtrace.size();
        out += "    " + r.crash.backtrace.substr(pos, eol - pos) + "\n";
        pos = eol + 1;
      }
    }
  } else if (!r.clean_shutdown) {
    out +=
        "crash: no fatal-signal record (killed outright, _exit at a crash "
        "point, or the handler was not installed)\n";
  }

  std::snprintf(line, sizeof(line),
                "log frontiers: durable=%" PRIu64 " logical_end=%" PRIu64 "\n",
                r.durable_lsn, r.logical_end_lsn);
  out += line;
  for (size_t s = 0; s < r.shard_staged_lsns.size(); ++s) {
    if (r.shard_staged_lsns[s] == 0) continue;
    std::snprintf(line, sizeof(line),
                  "  wal shard %zu staged through lsn=%" PRIu64 "\n", s,
                  r.shard_staged_lsns[s]);
    out += line;
  }
  out += "armed crash points: " +
         (r.armed_crashpoints.empty() ? std::string("(none)")
                                      : r.armed_crashpoints) +
         "\n";
  if (!r.watchdog_status.empty()) {
    out += "watchdog: " + r.watchdog_status + "\n";
  }

  std::snprintf(line, sizeof(line), "trace tail: %zu event(s)\n",
                r.events.size());
  out += line;
  for (const TraceEvent& e : r.events) {
    std::snprintf(line, sizeof(line), "  [%" PRIu64 "] t=%s %s %s\n", e.seq,
                  FormatWallNs(r.WallFromMono(e.t_ns)).c_str(),
                  TraceEventTypeName(e.type), DescribeTraceEvent(e).c_str());
    out += line;
  }

  if (!r.sample.empty()) {
    std::snprintf(line, sizeof(line),
                  "last metrics sample (%s): %zu series\n",
                  FormatWallNs(r.sample_wall_ns).c_str(), r.sample.size());
    out += line;
    // A few headliners; the full set is in the decoded report.
    for (const BlackBoxSampleEntry& e : r.sample) {
      if (e.name != "txn.commits" && e.name != "txn.aborts" &&
          e.name != "wal.flushes" && e.name != "ckpt.checkpoints" &&
          e.name.rfind("process.", 0) != 0) {
        continue;
      }
      if (e.kind == 'g') {
        std::snprintf(line, sizeof(line), "  %s = %lld\n", e.name.c_str(),
                      static_cast<long long>(static_cast<int64_t>(e.bits)));
      } else {
        std::snprintf(line, sizeof(line), "  %s = %" PRIu64 "\n",
                      e.name.c_str(), e.bits);
      }
      out += line;
    }
  }
  return out;
}

}  // namespace cwdb
