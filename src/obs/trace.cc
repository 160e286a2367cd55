#include "obs/trace.h"

#include <algorithm>
#include <cstdio>

#include "common/crc32.h"
#include "obs/metrics.h"

namespace cwdb {

const char* TraceEventTypeName(TraceEventType type) {
  switch (type) {
    case TraceEventType::kFaultInjected: return "fault_injected";
    case TraceEventType::kWritePrevented: return "write_prevented";
    case TraceEventType::kCorruptionDetected: return "corruption_detected";
    case TraceEventType::kPrecheckFailed: return "precheck_failed";
    case TraceEventType::kAuditPassBegin: return "audit_pass_begin";
    case TraceEventType::kAuditPassEnd: return "audit_pass_end";
    case TraceEventType::kRecoveryPhase: return "recovery_phase";
    case TraceEventType::kTxnDeleted: return "txn_deleted";
    case TraceEventType::kGroupCommitFlush: return "group_commit_flush";
    case TraceEventType::kCheckpoint: return "checkpoint";
    case TraceEventType::kMprotectFault: return "mprotect_fault";
    case TraceEventType::kWalTailDamage: return "wal_tail_damage";
    case TraceEventType::kRepair: return "repair";
  }
  return "?";
}

bool TraceEventTypeFromName(const std::string& name, TraceEventType* type) {
  for (int i = 0; i <= static_cast<int>(TraceEventType::kRepair); ++i) {
    TraceEventType t = static_cast<TraceEventType>(i);
    if (name == TraceEventTypeName(t)) {
      *type = t;
      return true;
    }
  }
  return false;
}

std::string DescribeTraceEvent(const TraceEvent& e) {
  char buf[128];
  switch (e.type) {
    case TraceEventType::kFaultInjected:
    case TraceEventType::kWritePrevented:
    case TraceEventType::kCorruptionDetected:
    case TraceEventType::kPrecheckFailed:
    case TraceEventType::kMprotectFault:
    case TraceEventType::kRepair:
      std::snprintf(buf, sizeof(buf), "off=%llu len=%llu",
                    static_cast<unsigned long long>(e.a),
                    static_cast<unsigned long long>(e.b));
      break;
    case TraceEventType::kAuditPassBegin:
      std::snprintf(buf, sizeof(buf), "audit_sn=%llu",
                    static_cast<unsigned long long>(e.lsn));
      break;
    case TraceEventType::kAuditPassEnd:
      std::snprintf(buf, sizeof(buf), "regions=%llu corrupt=%llu",
                    static_cast<unsigned long long>(e.a),
                    static_cast<unsigned long long>(e.b));
      break;
    case TraceEventType::kRecoveryPhase:
      std::snprintf(buf, sizeof(buf), "phase=%s",
                    RecoveryPhaseName(static_cast<RecoveryPhase>(e.a)));
      break;
    case TraceEventType::kTxnDeleted:
      std::snprintf(buf, sizeof(buf), "txn=%llu",
                    static_cast<unsigned long long>(e.a));
      break;
    case TraceEventType::kGroupCommitFlush:
      std::snprintf(buf, sizeof(buf), "stable_end=%llu batch_bytes=%llu",
                    static_cast<unsigned long long>(e.lsn),
                    static_cast<unsigned long long>(e.a));
      break;
    case TraceEventType::kCheckpoint:
      std::snprintf(buf, sizeof(buf), "ck_end=%llu pages=%llu",
                    static_cast<unsigned long long>(e.lsn),
                    static_cast<unsigned long long>(e.a));
      break;
    case TraceEventType::kWalTailDamage:
      std::snprintf(buf, sizeof(buf), "damage_off=%llu file_bytes=%llu",
                    static_cast<unsigned long long>(e.a),
                    static_cast<unsigned long long>(e.b));
      break;
    default:
      std::snprintf(buf, sizeof(buf), "a=%llu b=%llu",
                    static_cast<unsigned long long>(e.a),
                    static_cast<unsigned long long>(e.b));
  }
  std::string out = buf;
  if (e.shard != kNoTraceShard) {
    std::snprintf(buf, sizeof(buf), " shard=%llu",
                  static_cast<unsigned long long>(e.shard));
    out += buf;
  }
  return out;
}

const char* RecoveryPhaseName(RecoveryPhase phase) {
  switch (phase) {
    case RecoveryPhase::kLoadCheckpoint: return "load_checkpoint";
    case RecoveryPhase::kRedo: return "redo";
    case RecoveryPhase::kUndo: return "undo";
    case RecoveryPhase::kFinalCheckpoint: return "final_checkpoint";
    case RecoveryPhase::kDone: return "done";
  }
  return "?";
}

TraceSlot EncodeTraceSlot(const TraceEvent& e) {
  TraceSlot s;
  s.t_ns = e.t_ns;
  s.lsn = e.lsn;
  s.a = e.a;
  s.b = e.b;
  s.shard = e.shard;
  s.type = static_cast<uint32_t>(e.type);
  s.crc = Crc32c(&s, offsetof(TraceSlot, crc));
  return s;
}

std::vector<TraceEvent> ReadTraceRing(const SeqRing<TraceSlot>& ring) {
  std::vector<TraceEvent> out;
  out.reserve(ring.capacity());
  ring.ForEach([&out](uint64_t seq, const TraceSlot& s) {
    if (s.type > static_cast<uint32_t>(TraceEventType::kRepair)) return;
    if (Crc32c(&s, offsetof(TraceSlot, crc)) != s.crc) return;
    TraceEvent e;
    e.seq = seq;
    e.t_ns = s.t_ns;
    e.lsn = s.lsn;
    e.a = s.a;
    e.b = s.b;
    e.shard = s.shard;
    e.type = static_cast<TraceEventType>(s.type);
    out.push_back(e);
  });
  std::sort(out.begin(), out.end(),
            [](const TraceEvent& x, const TraceEvent& y) {
              return x.seq < y.seq;
            });
  return out;
}

void EventTrace::Record(TraceEventType type, uint64_t lsn, uint64_t a,
                        uint64_t b, uint64_t shard) {
  TraceEvent e;
  e.t_ns = NowNs();
  e.lsn = lsn;
  e.a = a;
  e.b = b;
  e.shard = shard;
  e.type = type;
  ring_.Push(EncodeTraceSlot(e));
}

}  // namespace cwdb
