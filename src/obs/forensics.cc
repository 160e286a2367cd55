#include "obs/forensics.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>

#include "common/file_util.h"

namespace cwdb {
namespace {

/// Newlines in the file at `path` (0 when it is missing or unreadable),
/// counted through a fixed buffer so a long incident history is never held
/// in memory at once.
uint64_t CountLines(const std::string& path) {
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return 0;
  uint64_t lines = 0;
  char buf[1 << 16];
  ssize_t n;
  while ((n = ::read(fd, buf, sizeof(buf))) > 0) {
    lines += static_cast<uint64_t>(std::count(buf, buf + n, '\n'));
  }
  ::close(fd);
  return lines;
}

void AppendAttributionJson(std::string* out, const RangeAttribution& a) {
  Appendf(out,
          "{\"kind\":\"%s\",\"off\":%" PRIu64 ",\"len\":%" PRIu64
          ",\"page_first\":%" PRIu64 ",\"page_last\":%" PRIu64,
          ImageAreaKindName(a.kind), a.off, a.len, a.page_first, a.page_last);
  if (a.kind == ImageAreaKind::kBitmap || a.kind == ImageAreaKind::kRecordData ||
      a.kind == ImageAreaKind::kTableDir) {
    Appendf(out, ",\"table\":%u,\"table_name\":", static_cast<unsigned>(a.table));
    out->append(JsonQuote(a.table_name));
  }
  if (a.kind == ImageAreaKind::kRecordData && a.first_slot != kInvalidSlot) {
    Appendf(out, ",\"first_slot\":%u,\"last_slot\":%u", a.first_slot,
            a.last_slot);
  }
  out->push_back('}');
}

}  // namespace

const char* IncidentSourceName(IncidentSource s) {
  switch (s) {
    case IncidentSource::kAudit: return "audit";
    case IncidentSource::kCertification: return "certification";
    case IncidentSource::kReadPrecheck: return "read_precheck";
    case IncidentSource::kMprotectTrap: return "mprotect_trap";
    case IncidentSource::kWalCrc: return "wal_crc";
    case IncidentSource::kCheckpointMeta: return "checkpoint_meta";
    case IncidentSource::kOperator: return "operator";
    case IncidentSource::kStallWatchdog: return "stall_watchdog";
    case IncidentSource::kRepair: return "repair";
    case IncidentSource::kCkptLoad: return "ckpt_load";
    case IncidentSource::kCrash: return "crash";
  }
  return "unknown";
}

std::string CorruptionIncident::ToJson() const {
  std::string out;
  out.reserve(1024);
  Appendf(&out,
          "{\"id\":%" PRIu64 ",\"mono_ns\":%" PRIu64 ",\"wall_ns\":%" PRIu64
          ",\"boot_mono_ns\":%" PRIu64 ",\"boot_wall_ns\":%" PRIu64
          ",\"source\":\"%s\",\"scheme\":",
          id, mono_ns, wall_ns, boot_mono_ns, boot_wall_ns,
          IncidentSourceName(source));
  out.append(JsonQuote(scheme));
  Appendf(&out, ",\"lsn\":%" PRIu64 ",\"last_clean_audit_lsn\":%" PRIu64
          ",\"detail\":", lsn, last_clean_audit_lsn);
  out.append(JsonQuote(detail));
  if (linked_incident_id != 0) {
    Appendf(&out, ",\"linked_incident_id\":%" PRIu64, linked_incident_id);
  }
  out.append(",\"regions\":[");
  bool first = true;
  for (const IncidentRegion& r : regions) {
    if (!first) out.push_back(',');
    first = false;
    Appendf(&out, "{\"off\":%" PRIu64 ",\"len\":%" PRIu64, r.range.off,
            r.range.len);
    if (r.have_codewords) {
      Appendf(&out,
              ",\"codeword_stored\":%u,\"codeword_computed\":%u"
              ",\"codeword_delta\":%u",
              r.codeword_stored, r.codeword_computed, r.codeword_delta());
    }
    if (r.have_repair_delta) {
      Appendf(&out, ",\"repair_delta\":%u", r.repair_delta);
    }
    if (!r.hexdump.empty()) {
      Appendf(&out, ",\"hexdump_off\":%" PRIu64 ",\"hexdump\":\"%s\"",
              r.hexdump_off, r.hexdump.c_str());
    }
    out.append(",\"attribution\":[");
    bool afirst = true;
    for (const RangeAttribution& a : r.attribution) {
      if (!afirst) out.push_back(',');
      afirst = false;
      AppendAttributionJson(&out, a);
    }
    out.append("]}");
  }
  out.append("],\"active_txns\":[");
  first = true;
  for (TxnId t : active_txns) {
    Appendf(&out, "%s%" PRIu64, first ? "" : ",", t);
    first = false;
  }
  out.append("],\"recent_events\":[");
  first = true;
  for (const TraceEvent& e : recent_events) {
    uint64_t ev_wall =
        (e.t_ns == 0 || boot_wall_ns == 0)
            ? 0
            : boot_wall_ns + (e.t_ns - boot_mono_ns);
    if (!first) out.push_back(',');
    first = false;
    Appendf(&out,
            "{\"seq\":%" PRIu64 ",\"t_ns\":%" PRIu64 ",\"wall_ns\":%" PRIu64
            ",\"type\":\"%s\",\"lsn\":%" PRIu64 ",\"a\":%" PRIu64
            ",\"b\":%" PRIu64 ",\"desc\":",
            e.seq, e.t_ns, ev_wall, TraceEventTypeName(e.type), e.lsn, e.a,
            e.b);
    out.append(JsonQuote(DescribeTraceEvent(e)));
    out.push_back('}');
  }
  out.append("]}");
  return out;
}

ForensicsRecorder::ForensicsRecorder(std::string dir, const DbImage* image,
                                     MetricsRegistry* metrics, Options options)
    : path_(dir + "/incidents.jsonl"),
      image_(image),
      metrics_(metrics),
      options_(options) {
  // Seed the id counter past any dossiers a previous incarnation filed, so
  // ids stay unique across the crash/restart an incident causes.
  next_id_ = CountLines(path_) + 1;
}

uint64_t ForensicsRecorder::next_id() const {
  std::lock_guard<std::mutex> guard(mu_);
  return next_id_;
}

uint64_t ForensicsRecorder::RecordIncident(
    IncidentSource source, uint64_t lsn, uint64_t last_clean_audit_lsn,
    const std::vector<CorruptRange>& ranges, std::string_view detail) {
  return RecordIncident(source, lsn, last_clean_audit_lsn, ranges, detail,
                        IncidentExtras());
}

uint64_t ForensicsRecorder::RecordIncident(
    IncidentSource source, uint64_t lsn, uint64_t last_clean_audit_lsn,
    const std::vector<CorruptRange>& ranges, std::string_view detail,
    const IncidentExtras& extras) {
  CorruptionIncident inc;
  inc.linked_incident_id = extras.linked_incident_id;
  inc.mono_ns = NowNs();
  inc.wall_ns = WallNowNs();
  if (metrics_ != nullptr) {
    inc.boot_mono_ns = metrics_->boot_mono_ns();
    inc.boot_wall_ns = metrics_->boot_wall_ns();
  }
  inc.source = source;
  inc.scheme = scheme_name_;
  inc.lsn = lsn;
  inc.last_clean_audit_lsn = last_clean_audit_lsn;
  inc.detail = std::string(detail);

  size_t n = std::min(ranges.size(), options_.max_regions);
  for (size_t i = 0; i < n; ++i) {
    IncidentRegion r;
    r.range = ranges[i];
    if (image_ != nullptr) {
      r.attribution = AttributeRange(*image_, r.range.off, r.range.len);
      // Bounded window of the bytes as found — the "actual" side of the
      // evidence; the codeword delta is the only record of "expected".
      uint64_t dump_len = std::min<uint64_t>(r.range.len,
                                             options_.hexdump_bytes);
      if (image_->InBounds(r.range.off, dump_len) && dump_len > 0) {
        r.hexdump_off = r.range.off;
        r.hexdump.reserve(2 * dump_len);
        const uint8_t* p = image_->At(r.range.off);
        static const char* kHex = "0123456789abcdef";
        for (uint64_t j = 0; j < dump_len; ++j) {
          r.hexdump.push_back(kHex[p[j] >> 4]);
          r.hexdump.push_back(kHex[p[j] & 0xf]);
        }
      }
    }
    if (codeword_probe_) {
      r.have_codewords = codeword_probe_(r.range.off, &r.codeword_stored,
                                         &r.codeword_computed);
    }
    if (i < extras.repair_deltas.size()) {
      r.have_repair_delta = true;
      r.repair_delta = extras.repair_deltas[i];
    }
    inc.regions.push_back(std::move(r));
  }
  if (ranges.size() > n && !inc.detail.empty()) {
    Appendf(&inc.detail, " (+%zu more ranges elided)", ranges.size() - n);
  }

  if (active_txns_fn_) {
    inc.active_txns = active_txns_fn_();
    std::sort(inc.active_txns.begin(), inc.active_txns.end());
    if (inc.active_txns.size() > options_.max_active_txns) {
      inc.active_txns.resize(options_.max_active_txns);
    }
  }
  if (extras.override_recent_events) {
    // kCrash dossiers: the events belong to the prior incarnation (its black
    // box's mirrored tail), not to this process's trace ring.
    inc.recent_events = extras.recent_events;
    if (inc.recent_events.size() > options_.trace_events) {
      inc.recent_events.erase(
          inc.recent_events.begin(),
          inc.recent_events.end() - options_.trace_events);
    }
  } else if (metrics_ != nullptr) {
    std::vector<TraceEvent> events = metrics_->trace().Snapshot();
    size_t keep = std::min(events.size(), options_.trace_events);
    inc.recent_events.assign(events.end() - keep, events.end());
  }

  std::lock_guard<std::mutex> guard(mu_);
  inc.id = next_id_++;
  Status s = AppendLine(inc.ToJson());
  if (metrics_ != nullptr) {
    metrics_->counter("obs.incidents_recorded")->Add();
    if (!s.ok()) metrics_->counter("obs.incident_append_failures")->Add();
  }
  return inc.id;
}

Status ForensicsRecorder::AppendLine(const std::string& line) {
  int fd = ::open(path_.c_str(), O_WRONLY | O_APPEND | O_CREAT | O_CLOEXEC,
                  0644);
  if (fd < 0) return Status::IoError("open " + path_);
  std::string buf = line;
  buf.push_back('\n');
  size_t done = 0;
  while (done < buf.size()) {
    ssize_t n = ::write(fd, buf.data() + done, buf.size() - done);
    if (n < 0) {
      ::close(fd);
      return Status::IoError("write " + path_);
    }
    done += static_cast<size_t>(n);
  }
  // The dossier must survive the deliberate crash that follows detection.
  if (::fsync(fd) != 0) {
    ::close(fd);
    return Status::IoError("fsync " + path_);
  }
  ::close(fd);
  return Status::OK();
}

Result<std::vector<JsonValue>> LoadIncidentFile(const std::string& path,
                                                size_t* skipped) {
  if (skipped != nullptr) *skipped = 0;
  std::string text;
  Status s = ReadFileToString(path, &text, MissingFile::kTreatAsEmpty);
  if (!s.ok()) return s;
  std::vector<JsonValue> out;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t nl = text.find('\n', pos);
    if (nl == std::string::npos) nl = text.size();
    std::string_view line(text.data() + pos, nl - pos);
    pos = nl + 1;
    if (line.empty()) continue;
    Result<JsonValue> parsed = ParseJson(line);
    if (parsed.ok()) {
      out.push_back(std::move(parsed.value()));
    } else if (skipped != nullptr) {
      ++*skipped;  // E.g. a torn final line from a crash mid-append.
    }
  }
  return out;
}

std::string RenderIncident(const JsonValue& incident) {
  std::string out;
  Appendf(&out,
          "incident #%" PRIu64 "  source=%s  scheme=%s  %s  lsn=%" PRIu64
          "  last_clean_audit_lsn=%" PRIu64 "\n",
          incident.U64("id"), incident.Str("source").c_str(),
          incident.Str("scheme").c_str(),
          FormatWallNs(incident.U64("wall_ns")).c_str(), incident.U64("lsn"),
          incident.U64("last_clean_audit_lsn"));
  if (incident.U64("linked_incident_id") != 0) {
    Appendf(&out, "  linked to incident #%" PRIu64 "\n",
            incident.U64("linked_incident_id"));
  }
  std::string detail = incident.Str("detail");
  if (!detail.empty()) Appendf(&out, "  detail: %s\n", detail.c_str());

  if (const JsonValue* regions = incident.Find("regions");
      regions != nullptr && regions->is_array()) {
    for (const JsonValue& r : regions->array()) {
      Appendf(&out, "  region [%" PRIu64 ",+%" PRIu64 ")", r.U64("off"),
              r.U64("len"));
      if (r.Find("codeword_delta") != nullptr) {
        Appendf(&out, "  delta=0x%08x stored=0x%08x computed=0x%08x",
                static_cast<unsigned>(r.U64("codeword_delta")),
                static_cast<unsigned>(r.U64("codeword_stored")),
                static_cast<unsigned>(r.U64("codeword_computed")));
      }
      if (r.Find("repair_delta") != nullptr) {
        Appendf(&out, "  repaired delta=0x%08x",
                static_cast<unsigned>(r.U64("repair_delta")));
      }
      out.push_back('\n');
      if (const JsonValue* attr = r.Find("attribution");
          attr != nullptr && attr->is_array()) {
        for (const JsonValue& a : attr->array()) {
          Appendf(&out, "    -> %s [%" PRIu64 ",+%" PRIu64 ") pages %" PRIu64
                  "..%" PRIu64,
                  a.Str("kind").c_str(), a.U64("off"), a.U64("len"),
                  a.U64("page_first"), a.U64("page_last"));
          if (a.Find("table_name") != nullptr) {
            Appendf(&out, " table '%s' (id %" PRIu64 ")",
                    a.Str("table_name").c_str(), a.U64("table"));
          }
          if (a.Find("first_slot") != nullptr) {
            Appendf(&out, " records %" PRIu64 "..%" PRIu64,
                    a.U64("first_slot"), a.U64("last_slot"));
          }
          out.push_back('\n');
        }
      }
      std::string hexdump = r.Str("hexdump");
      if (!hexdump.empty()) {
        Appendf(&out, "    bytes @%" PRIu64 ": %s\n", r.U64("hexdump_off"),
                hexdump.c_str());
      }
    }
  }

  if (const JsonValue* txns = incident.Find("active_txns");
      txns != nullptr && txns->is_array() && !txns->array().empty()) {
    Appendf(&out, "  active txns (%zu):", txns->array().size());
    for (const JsonValue& t : txns->array()) {
      Appendf(&out, " %" PRIu64, t.AsU64());
    }
    out.push_back('\n');
  }

  if (const JsonValue* events = incident.Find("recent_events");
      events != nullptr && events->is_array() && !events->array().empty()) {
    Appendf(&out, "  recent events (%zu):\n", events->array().size());
    for (const JsonValue& e : events->array()) {
      Appendf(&out, "    seq=%-8" PRIu64 " %s %-20s %s lsn=%" PRIu64 "\n",
              e.U64("seq"), FormatWallNs(e.U64("wall_ns")).c_str(),
              e.Str("type").c_str(), e.Str("desc").c_str(), e.U64("lsn"));
    }
  }
  return out;
}

}  // namespace cwdb
