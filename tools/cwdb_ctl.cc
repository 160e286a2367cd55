// cwdb_ctl — operator tool for cwdb database directories.
//
//   cwdb_ctl info <dir>                  checkpoint / log / audit overview
//   cwdb_ctl tables <dir>                table directory of the active image
//   cwdb_ctl check <dir> [--repair]      offline integrity check (meta CRCs,
//                                        image header, layout invariants,
//                                        log frame validity, parity-sidecar
//                                        verification of the image bytes);
//                                        --repair rewrites regions the
//                                        parity columns can reconstruct
//   cwdb_ctl logdump <dir> [from-lsn]    decode the stable system log
//   cwdb_ctl recover <dir> [scheme]      open the database (running restart
//                                        or corruption recovery) and report
//   cwdb_ctl stats <dir> [--per-shard]   re-emit the metrics snapshot that
//                                        Database::DumpMetrics()/Close()
//                                        persisted (byte-identical JSON);
//                                        --per-shard renders the sharded
//                                        counter families as a table
//                                        (one row per engine shard)
//   cwdb_ctl trace <dir>                 decode the flight-recorder events
//                                        of the persisted metrics snapshot
//   cwdb_ctl trace-export <dir>          emit the persisted span dump as
//                                        Chrome/Perfetto trace-event JSON
//                                        (load at https://ui.perfetto.dev);
//                                        a database that never traced
//                                        yields the valid empty document
//   cwdb_ctl spans <dir> [--attribute]   list the persisted spans grouped
//                                        by trace; --attribute renders the
//                                        per-stage latency shares of the
//                                        p50/p99 commit cohorts instead
//   cwdb_ctl incidents <dir>             render incidents.jsonl dossiers;
//                                        a detection dossier and the kRepair
//                                        dossier linked to it are rendered
//                                        together as one episode
//   cwdb_ctl repairs <dir>               in-place repair activity: repair.*
//                                        counters/latency from the metrics
//                                        snapshot plus every repair episode
//                                        from incidents.jsonl
//   cwdb_ctl explain-recovery <dir> [--dot]
//                                        per-deleted-txn implication chains
//                                        from the last corruption recovery
//   cwdb_ctl scrub-map <dir>             per-shard audit-staleness heatmap
//                                        from the persisted scrub.* gauges
//   cwdb_ctl postmortem <dir>            render the flight recorder's black
//                                        box: the crash record, LSN
//                                        frontiers, trace tail and metrics
//                                        sample of the last unclean death
//                                        (blackbox.bin, or the rotated
//                                        blackbox.prev.bin after reopen),
//                                        plus the crash dossier the reopen
//                                        filed into incidents.jsonl
//
// All subcommands except `recover` are read-only and work on a cold
// directory without instantiating a Database.

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <array>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "ckpt/att_codec.h"
#include "ckpt/checkpoint.h"
#include "common/file_util.h"
#include "common/json.h"
#include "core/database.h"
#include "obs/forensics.h"
#include "obs/history.h"
#include "obs/postmortem.h"
#include "obs/trace.h"
#include "obs/trace_export.h"
#include "protect/parity_repair.h"
#include "recovery/corrupt_note.h"
#include "recovery/provenance.h"
#include "storage/integrity.h"
#include "wal/system_log.h"

namespace cwdb {
namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: cwdb_ctl <info|tables|check|logdump|recover|stats|"
               "trace|trace-export|spans|incidents|repairs|explain-recovery|"
               "scrub-map|postmortem> <dir> [args]\n");
  return 2;
}

/// Loads the active checkpoint image of a cold database directory.
Result<std::unique_ptr<DbImage>> LoadColdImage(const DbFiles& files,
                                               CheckpointMeta* meta_out,
                                               int* which_out) {
  std::string anchor;
  CWDB_RETURN_IF_ERROR(ReadFileToString(files.Anchor(), &anchor));
  int which = anchor == "A" ? 0 : anchor == "B" ? 1 : -1;
  if (which < 0) return Status::Corruption("bad anchor: " + anchor);

  // Geometry comes from the image header, but we need geometry to build
  // the DbImage first — so peek at the raw header in the checkpoint file.
  std::string head(sizeof(DbHeaderRaw), '\0');
  {
    std::string contents;
    CWDB_RETURN_IF_ERROR(ReadFileToString(files.CkptImage(which), &contents));
    if (contents.size() < sizeof(DbHeaderRaw)) {
      return Status::Corruption("checkpoint image too small");
    }
    DbHeaderRaw h;
    std::memcpy(&h, contents.data(), sizeof(h));
    if (h.magic != kDbMagic) return Status::Corruption("bad image magic");
    CWDB_ASSIGN_OR_RETURN(std::unique_ptr<DbImage> image,
                          DbImage::Create(h.arena_size, h.page_size));
    std::memcpy(image->base(), contents.data(),
                std::min<size_t>(contents.size(), image->size()));
    CWDB_RETURN_IF_ERROR(image->ValidateHeader());
    if (meta_out != nullptr) {
      // Reuse the Checkpointer's meta reader through a scratch instance.
      Checkpointer scratch(files, image.get(), nullptr, nullptr, nullptr);
      CWDB_ASSIGN_OR_RETURN(*meta_out, scratch.ReadActiveMeta());
    }
    if (which_out != nullptr) *which_out = which;
    return image;
  }
}

int CmdInfo(const std::string& dir) {
  DbFiles files(dir);
  CheckpointMeta meta;
  int which = 0;
  auto image = LoadColdImage(files, &meta, &which);
  if (!image.ok()) {
    std::fprintf(stderr, "cannot load checkpoint: %s\n",
                 image.status().ToString().c_str());
    return 1;
  }
  const DbHeaderRaw* h = (*image)->header();
  std::printf("database         : %s\n", dir.c_str());
  std::printf("arena            : %" PRIu64 " bytes, page %u\n",
              h->arena_size, h->page_size);
  std::printf("allocated        : %" PRIu64 " bytes (cursor)\n",
              h->alloc_cursor);
  std::printf("active checkpoint: Ckpt_%c, CK_end=%" PRIu64 "\n",
              which == 0 ? 'A' : 'B', meta.ck_end);

  // Checkpointed ATT summary (decode into a scratch manager-free count).
  std::printf("checkpointed ATT : %zu bytes\n", meta.att_blob.size());

  struct stat log_st;
  if (::stat(files.SystemLog().c_str(), &log_st) == 0) {
    std::printf("stable log       : %" PRIu64 " bytes\n",
                static_cast<uint64_t>(log_st.st_size));
  }
  auto audit_lsn = ReadAuditMeta(files.AuditMeta());
  if (audit_lsn.ok()) {
    std::printf("last clean audit : LSN %" PRIu64 "\n", *audit_lsn);
  }
  if (FileExists(files.CorruptNote())) {
    auto note = ReadCorruptionNote(files.CorruptNote());
    if (note.ok()) {
      std::printf("CORRUPTION NOTED : %zu region(s), Audit_SN %" PRIu64
                  " — next open runs delete-transaction recovery\n",
                  note->ranges.size(), note->last_clean_audit_lsn);
    }
  }
  return 0;
}

int CmdTables(const std::string& dir) {
  DbFiles files(dir);
  auto image = LoadColdImage(files, nullptr, nullptr);
  if (!image.ok()) {
    std::fprintf(stderr, "%s\n", image.status().ToString().c_str());
    return 1;
  }
  std::printf("%-4s %-32s %10s %10s %12s %12s\n", "id", "name", "recsize",
              "capacity", "data_off", "bitmap_off");
  for (TableId t = 0; t < kMaxTables; ++t) {
    const TableMetaRaw* m = (*image)->table_meta(t);
    if (!m->in_use) continue;
    std::printf("%-4u %-32.32s %10u %10" PRIu64 " %12" PRIu64 " %12" PRIu64
                "\n",
                t, m->name, m->record_size, m->capacity, m->data_off,
                m->bitmap_off);
  }
  return 0;
}

int CmdCheck(const std::string& dir, bool repair) {
  DbFiles files(dir);
  int failures = 0;
  CheckpointMeta meta;
  int which = 0;
  auto image = LoadColdImage(files, &meta, &which);
  if (!image.ok()) {
    std::printf("checkpoint image : FAIL (%s)\n",
                image.status().ToString().c_str());
    return 1;
  }
  std::printf("checkpoint image : ok (meta CRC, header)\n");

  // Parity sidecar: verify the cold image bytes against the codewords it
  // was checkpointed under and report what the parity columns could
  // reconstruct; --repair rewrites those regions in the image file.
  std::string blob;
  Status ps = ReadFileToString(files.CkptParity(which), &blob,
                               MissingFile::kTreatAsEmpty);
  if (!ps.ok()) {
    ++failures;
    std::printf("parity sidecar   : FAIL (%s)\n", ps.ToString().c_str());
  } else if (blob.empty()) {
    std::printf("parity sidecar   : none (scheme without a parity tier)\n");
  } else if (Result<ParitySidecar> sc = DecodeParitySidecar(Slice(blob));
             !sc.ok()) {
    ++failures;
    std::printf("parity sidecar   : FAIL (%s)\n",
                sc.status().ToString().c_str());
  } else if (sc->ck_end != meta.ck_end || sc->arena_size != (*image)->size()) {
    std::printf("parity sidecar   : stale (CK_end %" PRIu64 " vs %" PRIu64
                ") — verification skipped\n",
                sc->ck_end, meta.ck_end);
  } else {
    uint64_t verified = 0;
    std::vector<CorruptRange> detected =
        VerifyImageAgainstSidecar(*sc, (*image)->base(), &verified);
    if (detected.empty()) {
      std::printf("parity sidecar   : ok (%" PRIu64 " regions verified)\n",
                  verified);
    } else {
      ImageRepairReport rep;
      RepairImageWithSidecar(*sc, (*image)->base(), detected, repair, &rep);
      std::printf("parity sidecar   : %zu corrupt region(s) — %zu "
                  "reconstructable, %zu beyond the correction budget\n",
                  detected.size(), rep.repaired.size(),
                  rep.unrepaired.size());
      for (size_t i = 0; i < rep.repaired.size(); ++i) {
        std::printf("  [%" PRIu64 ", +%" PRIu64 ") reconstructable "
                    "(delta 0x%08x)%s\n",
                    rep.repaired[i].off, rep.repaired[i].len,
                    rep.repair_deltas[i], repair ? " — repaired" : "");
      }
      for (const CorruptRange& r : rep.unrepaired) {
        std::printf("  [%" PRIu64 ", +%" PRIu64 ") NOT reconstructable\n",
                    r.off, r.len);
      }
      if (repair && !rep.repaired.empty()) {
        // Write the reconstructed regions back into the image file (file
        // offset == arena offset for the full-arena checkpoint image).
        int fd = ::open(files.CkptImage(which).c_str(), O_WRONLY);
        Status ws = fd < 0 ? Status::IoError("open for --repair failed")
                           : Status::OK();
        for (const CorruptRange& r : rep.repaired) {
          if (!ws.ok()) break;
          ws = PWriteAll(fd, (*image)->base() + r.off, r.len, r.off);
        }
        if (ws.ok() && fd >= 0) ws = FsyncFd(fd);
        if (fd >= 0) ::close(fd);
        if (!ws.ok()) {
          ++failures;
          std::printf("  write-back     : FAIL (%s)\n", ws.ToString().c_str());
        } else {
          std::printf("  write-back     : %zu region(s) repaired in %s\n",
                      rep.repaired.size(), files.CkptImage(which).c_str());
        }
      }
      if (!repair || !rep.unrepaired.empty()) ++failures;
    }
  }

  auto violations = CheckImageIntegrity(**image);
  if (violations.empty()) {
    std::printf("image layout     : ok\n");
  } else {
    ++failures;
    std::printf("image layout     : %zu violation(s)\n", violations.size());
    for (const auto& v : violations) {
      std::printf("  [%" PRIu64 ", +%" PRIu64 ") %s\n", v.off, v.len,
                  v.message.c_str());
    }
  }

  // The same scan SystemLog::Open runs: the valid frame prefix, then the
  // verdict on what follows it.
  Result<WalTailScan> scan = SystemLog::ScanFile(files.SystemLog());
  if (!scan.ok()) {
    ++failures;
    std::printf("stable log       : FAIL (%s)\n",
                scan.status().ToString().c_str());
  } else {
    const char* tail_note = "";
    if (scan->damaged) {
      ++failures;
      tail_note = " (DAMAGED: stable bytes altered in place)";
    } else if (scan->valid_bytes < scan->file_bytes) {
      tail_note = scan->zero_tail ? " (+ preallocated tail)"
                                  : " (torn tail will be discarded)";
    }
    std::printf("stable log       : valid prefix %" PRIu64 "/%" PRIu64
                " bytes%s\n",
                scan->valid_bytes, scan->file_bytes, tail_note);
    if (scan->damaged) {
      std::printf("  first bad frame at byte %" PRIu64
                  "; the next open truncates there and files a dossier\n",
                  scan->damage_off);
    }
  }
  return failures == 0 ? 0 : 1;
}

const char* RecordName(LogRecordType type) {
  switch (type) {
    case LogRecordType::kBeginTxn: return "BEGIN_TXN ";
    case LogRecordType::kCommitTxn: return "COMMIT_TXN";
    case LogRecordType::kAbortTxn: return "ABORT_TXN ";
    case LogRecordType::kPhysRedo: return "PHYS_REDO ";
    case LogRecordType::kReadLog: return "READ_LOG  ";
    case LogRecordType::kBeginOp: return "BEGIN_OP  ";
    case LogRecordType::kCommitOp: return "COMMIT_OP ";
    case LogRecordType::kAuditBegin: return "AUDIT     ";
  }
  return "?";
}

int CmdLogDump(const std::string& dir, Lsn from) {
  DbFiles files(dir);
  auto reader = LogReader::Open(files.SystemLog(), from, kInvalidLsn);
  if (!reader.ok()) {
    std::fprintf(stderr, "%s\n", reader.status().ToString().c_str());
    return 1;
  }
  LogRecord rec;
  Lsn lsn;
  while ((*reader)->Next(&rec, &lsn)) {
    std::printf("%10" PRIu64 "  %s txn=%-6" PRIu64, lsn,
                RecordName(rec.type), rec.txn);
    switch (rec.type) {
      case LogRecordType::kPhysRedo:
        std::printf(" off=%" PRIu64 " len=%u%s", rec.off, rec.len,
                    rec.has_cksum ? " +cksum" : "");
        break;
      case LogRecordType::kReadLog:
        std::printf(" off=%" PRIu64 " len=%u%s", rec.off, rec.len,
                    rec.has_cksum ? " +cksum" : "");
        break;
      case LogRecordType::kBeginOp:
        std::printf(" op=%u code=%u table=%u slot=%d", rec.op_id,
                    static_cast<unsigned>(rec.opcode), rec.table,
                    static_cast<int32_t>(rec.slot));
        break;
      case LogRecordType::kCommitOp:
        std::printf(" op=%u undo=%u table=%u slot=%d payload=%zub",
                    rec.op_id, static_cast<unsigned>(rec.undo.code),
                    rec.undo.table, static_cast<int32_t>(rec.undo.slot),
                    rec.undo.payload.size());
        break;
      default:
        break;
    }
    std::printf("\n");
  }
  if (!(*reader)->status().ok()) {
    std::fprintf(stderr, "%s\n", (*reader)->status().ToString().c_str());
    return 1;
  }
  std::printf("-- end of valid log at %" PRIu64 " --\n", (*reader)->position());
  return 0;
}

int CmdRecover(const std::string& dir, const std::string& scheme_name) {
  DatabaseOptions opts;
  opts.path = dir;
  // Geometry must match the stored image: peek at it.
  DbFiles files(dir);
  CheckpointMeta meta;
  auto image = LoadColdImage(files, &meta, nullptr);
  if (!image.ok()) {
    std::fprintf(stderr, "%s\n", image.status().ToString().c_str());
    return 1;
  }
  opts.arena_size = (*image)->header()->arena_size;
  opts.page_size = (*image)->header()->page_size;
  if (scheme_name == "readlog") {
    opts.protection.scheme = ProtectionScheme::kReadLog;
  } else if (scheme_name == "cwreadlog") {
    opts.protection.scheme = ProtectionScheme::kCodewordReadLog;
  } else if (scheme_name == "datacw") {
    opts.protection.scheme = ProtectionScheme::kDataCodeword;
  } else {
    opts.protection.scheme = ProtectionScheme::kNone;
  }
  auto db = Database::Open(opts);
  if (!db.ok()) {
    std::fprintf(stderr, "recovery failed: %s\n",
                 db.status().ToString().c_str());
    return 1;
  }
  const RecoveryReport& report = (*db)->last_recovery_report();
  std::printf("recovery complete: redo [%" PRIu64 ", %" PRIu64 "), %" PRIu64
              " records applied, %" PRIu64 " suppressed\n",
              report.redo_start, report.redo_end,
              report.redo_records_applied, report.redo_records_skipped);
  std::printf("rolled back %zu incomplete transaction(s)\n",
              report.rolled_back_txns.size());
  if (!report.deleted_txns.empty()) {
    std::printf("DELETED %zu transaction(s) (compensate manually):",
                report.deleted_txns.size());
    for (TxnId id : report.deleted_txns) {
      std::printf(" %" PRIu64, id);
    }
    std::printf("\n");
  }
  return 0;
}

/// Renders the per-shard counter families of the persisted snapshot as one
/// row per shard. The families are the sharded hot paths: WAL append
/// staging, protection updates/prechecks, lock-segment waits and audit
/// slices. A skewed row is the first thing to look at when scaling
/// disappoints — it means the workload (or the ShardMap) is not spreading.
int CmdStatsPerShard(const JsonValue& doc) {
  const JsonValue* counters = doc.Find("counters");
  if (counters == nullptr || !counters->is_object()) {
    std::fprintf(stderr, "snapshot has no counters object (schema %" PRIu64
                 ")\n", doc.U64("schema_version"));
    return 1;
  }
  struct Family {
    const char* prefix;   ///< Counter name up to the shard number.
    const char* suffix;   ///< Counter name after the shard number.
    const char* heading;
  };
  static constexpr Family kFamilies[] = {
      {"wal.shard", ".appends", "wal_appends"},
      {"protect.shard", ".updates", "protect_updates"},
      {"protect.shard", ".prechecks", "prechecks"},
      {"txn.lockshard", ".waits", "lock_waits"},
      {"audit.shard", ".slices", "audit_slices"},
  };
  constexpr size_t kNumFamilies = sizeof(kFamilies) / sizeof(kFamilies[0]);

  // shard index -> per-family value; sized by the largest index seen.
  std::vector<std::array<uint64_t, kNumFamilies>> rows;
  for (const auto& [name, value] : counters->members()) {
    for (size_t f = 0; f < kNumFamilies; ++f) {
      const std::string_view prefix = kFamilies[f].prefix;
      const std::string_view suffix = kFamilies[f].suffix;
      if (name.size() <= prefix.size() + suffix.size()) continue;
      if (name.compare(0, prefix.size(), prefix) != 0) continue;
      if (name.compare(name.size() - suffix.size(), suffix.size(), suffix) !=
          0) {
        continue;
      }
      char* end = nullptr;
      const char* digits = name.c_str() + prefix.size();
      unsigned long shard = std::strtoul(digits, &end, 10);
      if (end != name.c_str() + name.size() - suffix.size()) continue;
      if (shard >= rows.size()) rows.resize(shard + 1, {});
      rows[shard][f] = value.AsU64();
    }
  }
  if (rows.empty()) {
    std::fprintf(stderr,
                 "snapshot has no per-shard counters (single-shard database "
                 "or pre-shard snapshot)\n");
    return 1;
  }
  std::printf("%-6s", "shard");
  for (const Family& f : kFamilies) std::printf(" %15s", f.heading);
  std::printf("\n");
  for (size_t s = 0; s < rows.size(); ++s) {
    std::printf("%-6zu", s);
    for (size_t f = 0; f < kNumFamilies; ++f) {
      std::printf(" %15" PRIu64, rows[s][f]);
    }
    std::printf("\n");
  }
  return 0;
}

int CmdStats(const std::string& dir, bool per_shard) {
  DbFiles files(dir);
  std::string json;
  Status s = ReadFileToString(files.MetricsFile(), &json);
  if (!s.ok()) {
    std::fprintf(stderr,
                 "no metrics snapshot at %s (run Database::DumpMetrics() or "
                 "Close() first): %s\n",
                 files.MetricsFile().c_str(), s.ToString().c_str());
    return 1;
  }
  if (per_shard) {
    Result<JsonValue> doc = ParseJson(json);
    if (!doc.ok()) {
      std::fprintf(stderr, "cannot parse %s: %s\n",
                   files.MetricsFile().c_str(),
                   doc.status().ToString().c_str());
      return 1;
    }
    return CmdStatsPerShard(*doc);
  }
  // Verbatim: the contract is that this output is byte-identical to what
  // DumpMetrics() returned in-process.
  std::fwrite(json.data(), 1, json.size(), stdout);
  if (json.empty() || json.back() != '\n') std::printf("\n");
  return 0;
}

int CmdTrace(const std::string& dir) {
  DbFiles files(dir);
  std::string json;
  Status s = ReadFileToString(files.MetricsFile(), &json);
  if (!s.ok()) {
    std::fprintf(stderr, "no metrics snapshot at %s: %s\n",
                 files.MetricsFile().c_str(), s.ToString().c_str());
    return 1;
  }
  Result<JsonValue> doc = ParseJson(json);
  if (!doc.ok()) {
    std::fprintf(stderr, "cannot parse %s: %s\n", files.MetricsFile().c_str(),
                 doc.status().ToString().c_str());
    return 1;
  }
  const JsonValue* events = doc->Find("events");
  if (events == nullptr || !events->is_array()) {
    std::fprintf(stderr, "snapshot has no events array (schema %" PRIu64
                 ")\n", doc->U64("schema_version"));
    return 1;
  }
  const uint64_t boot_mono = doc->U64("boot_mono_ns");
  std::printf("%-8s %-12s %-12s %-20s %-10s %s\n", "seq", "t+ms",
              "wall", "type", "lsn", "detail");
  for (const JsonValue& ev : events->array()) {
    TraceEvent e;
    e.seq = ev.U64("seq");
    e.t_ns = ev.U64("t_ns");
    e.lsn = ev.U64("lsn");
    e.a = ev.U64("a");
    e.b = ev.U64("b");
    if (const JsonValue* sh = ev.Find("shard"); sh != nullptr) {
      e.shard = sh->AsU64();
    }
    std::string type_name = ev.Str("type");
    std::string detail;
    if (TraceEventTypeFromName(type_name, &e.type)) {
      detail = DescribeTraceEvent(e);
    } else {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "a=%" PRIu64 " b=%" PRIu64, e.a, e.b);
      detail = buf;
    }
    // Both time bases: milliseconds since registry boot (monotonic) and
    // the wall-clock stamp the snapshot derived from its boot anchor.
    const double rel_ms =
        e.t_ns >= boot_mono
            ? static_cast<double>(e.t_ns - boot_mono) / 1e6
            : static_cast<double>(e.t_ns) / 1e6;
    const uint64_t wall_ns = ev.U64("wall_ns");
    char wall[32];
    if (wall_ns != 0) {
      std::snprintf(wall, sizeof(wall), "%.3fs",
                    static_cast<double>(wall_ns % 1000000000000ull) / 1e9);
    } else {
      std::snprintf(wall, sizeof(wall), "-");
    }
    std::printf("%-8" PRIu64 " %-12.3f %-12s %-20s %-10" PRIu64 " %s\n",
                e.seq, rel_ms, wall, type_name.c_str(), e.lsn,
                detail.c_str());
  }
  return 0;
}

/// Loads <dir>/spans.json. A directory that never traced (file absent) is
/// not an error: every consumer of the dump renders a valid empty document
/// from the default SpanDump.
Result<SpanDump> LoadSpanDump(const std::string& dir) {
  DbFiles files(dir);
  std::string json;
  CWDB_RETURN_IF_ERROR(ReadFileToString(files.SpansFile(), &json,
                                        MissingFile::kTreatAsEmpty));
  if (json.empty()) return SpanDump{};
  return ParseSpansJson(json);
}

int CmdTraceExport(const std::string& dir) {
  Result<SpanDump> dump = LoadSpanDump(dir);
  if (!dump.ok()) {
    std::fprintf(stderr, "cannot load spans: %s\n",
                 dump.status().ToString().c_str());
    return 1;
  }
  std::string chrome = SpansToChromeJson(*dump);
  std::fwrite(chrome.data(), 1, chrome.size(), stdout);
  if (chrome.empty() || chrome.back() != '\n') std::printf("\n");
  return 0;
}

int CmdSpans(const std::string& dir, bool attribute) {
  Result<SpanDump> dump = LoadSpanDump(dir);
  if (!dump.ok()) {
    std::fprintf(stderr, "cannot load spans: %s\n",
                 dump.status().ToString().c_str());
    return 1;
  }
  if (attribute) {
    std::fputs(RenderAttribution(ComputeAttribution(dump->spans)).c_str(),
               stdout);
    return 0;
  }
  std::fputs(RenderSpanList(*dump).c_str(), stdout);
  return 0;
}

int CmdIncidents(const std::string& dir) {
  DbFiles files(dir);
  size_t skipped = 0;
  Result<std::vector<JsonValue>> incidents =
      LoadIncidentFile(files.IncidentsFile(), &skipped);
  if (!incidents.ok()) {
    std::fprintf(stderr, "%s\n", incidents.status().ToString().c_str());
    return 1;
  }
  if (incidents->empty()) {
    std::printf("no incidents recorded at %s\n",
                files.IncidentsFile().c_str());
    return 0;
  }
  // A kRepair dossier names the detection it continues via
  // linked_incident_id; render the pair as one episode at the detection's
  // position instead of as two unrelated dossiers.
  std::map<uint64_t, const JsonValue*> repair_for;  // detection id -> repair
  std::set<uint64_t> paired_repairs;
  for (const JsonValue& inc : *incidents) {
    uint64_t linked = inc.U64("linked_incident_id");
    if (inc.Str("source") == "repair" && linked != 0) {
      repair_for[linked] = &inc;
      paired_repairs.insert(inc.U64("id"));
    }
  }
  for (const JsonValue& inc : *incidents) {
    uint64_t id = inc.U64("id");
    if (paired_repairs.count(id) != 0) continue;  // Rendered with its pair.
    auto pair = repair_for.find(id);
    if (pair != repair_for.end()) {
      std::printf("━ episode: detection #%" PRIu64
                  " repaired in place by #%" PRIu64 " ━\n",
                  id, pair->second->U64("id"));
      std::fputs(RenderIncident(inc).c_str(), stdout);
      std::fputs(RenderIncident(*pair->second).c_str(), stdout);
    } else {
      std::fputs(RenderIncident(inc).c_str(), stdout);
    }
    std::printf("\n");
  }
  if (skipped > 0) {
    std::printf("(%zu unparseable line(s) skipped — torn tail?)\n", skipped);
  }
  return 0;
}

int CmdRepairs(const std::string& dir) {
  DbFiles files(dir);
  // repair.* instruments from the persisted metrics snapshot.
  std::string json;
  if (ReadFileToString(files.MetricsFile(), &json).ok()) {
    Result<JsonValue> doc = ParseJson(json);
    if (doc.ok()) {
      if (const JsonValue* counters = doc->Find("counters");
          counters != nullptr && counters->is_object()) {
        for (const auto& [name, value] : counters->members()) {
          if (name.rfind("repair.", 0) != 0) continue;
          std::printf("%-28s %12" PRIu64 "\n", name.c_str(), value.AsU64());
        }
      }
      if (const JsonValue* hists = doc->Find("histograms");
          hists != nullptr && hists->is_object()) {
        for (const auto& [name, h] : hists->members()) {
          if (name.rfind("repair.", 0) != 0 || h.U64("count") == 0) continue;
          std::printf("%-28s count=%" PRIu64 " p50=%" PRIu64 "ns p99=%" PRIu64
                      "ns max=%" PRIu64 "ns\n",
                      name.c_str(), h.U64("count"), h.U64("p50"), h.U64("p99"),
                      h.U64("max"));
        }
      }
    }
  } else {
    std::printf("no metrics snapshot at %s\n", files.MetricsFile().c_str());
  }

  // Repair episodes from the dossier file.
  Result<std::vector<JsonValue>> incidents =
      LoadIncidentFile(files.IncidentsFile());
  if (!incidents.ok()) {
    std::fprintf(stderr, "%s\n", incidents.status().ToString().c_str());
    return 1;
  }
  size_t episodes = 0;
  for (const JsonValue& inc : *incidents) {
    if (inc.Str("source") != "repair") continue;
    ++episodes;
    const JsonValue* regions = inc.Find("regions");
    size_t n = regions != nullptr ? regions->array().size() : 0;
    std::printf("episode: repair #%" PRIu64 " (detection #%" PRIu64
                ") at LSN %" PRIu64 " — %zu region(s)\n",
                inc.U64("id"), inc.U64("linked_incident_id"), inc.U64("lsn"),
                n);
    if (regions != nullptr) {
      for (const JsonValue& r : regions->array()) {
        std::printf("  [%" PRIu64 ", +%" PRIu64 ") delta=0x%08" PRIx64 "\n",
                    r.U64("off"), r.U64("len"), r.U64("repair_delta"));
      }
    }
  }
  if (episodes == 0) {
    std::printf("no repair episodes recorded at %s\n",
                files.IncidentsFile().c_str());
  }
  return 0;
}

int CmdExplainRecovery(const std::string& dir, bool dot) {
  DbFiles files(dir);
  std::string json;
  Status s = ReadFileToString(files.ProvenanceFile(), &json);
  if (!s.ok()) {
    std::fprintf(stderr,
                 "no recovery provenance at %s (no corruption recovery has "
                 "run): %s\n",
                 files.ProvenanceFile().c_str(), s.ToString().c_str());
    return 1;
  }
  if (dot) {
    // Re-emit as Graphviz from the parsed JSON so the output always
    // matches the persisted graph.
    Result<JsonValue> doc = ParseJson(json);
    if (!doc.ok()) {
      std::fprintf(stderr, "cannot parse %s: %s\n",
                   files.ProvenanceFile().c_str(),
                   doc.status().ToString().c_str());
      return 1;
    }
    ProvenanceGraph g;
    g.incident_id = doc->U64("incident_id");
    g.last_clean_audit_lsn = doc->U64("last_clean_audit_lsn");
    if (const JsonValue* roots = doc->Find("roots"); roots != nullptr) {
      for (const JsonValue& r : roots->array()) {
        g.roots.push_back(CorruptRange{r.U64("off"), r.U64("len")});
      }
    }
    if (const JsonValue* edges = doc->Find("edges"); edges != nullptr) {
      for (const JsonValue& ej : edges->array()) {
        ProvenanceEdge e;
        e.txn = ej.U64("txn");
        e.at_lsn = ej.U64("at_lsn");
        e.via = CorruptRange{ej.U64("via_off"), ej.U64("via_len")};
        e.from_txn = ej.U64("from_txn");
        std::string reason = ej.Str("reason");
        for (int i = 0;
             i <= static_cast<int>(ProvenanceReason::kCommittedAfterLimit);
             ++i) {
          if (reason == ProvenanceReasonName(
                            static_cast<ProvenanceReason>(i))) {
            e.reason = static_cast<ProvenanceReason>(i);
            break;
          }
        }
        g.edges.push_back(e);
      }
    }
    std::fputs(g.ToDot().c_str(), stdout);
    return 0;
  }

  Result<JsonValue> doc = ParseJson(json);
  if (!doc.ok()) {
    std::fprintf(stderr, "cannot parse %s: %s\n",
                 files.ProvenanceFile().c_str(),
                 doc.status().ToString().c_str());
    return 1;
  }
  std::printf("incident %" PRIu64 ", last clean audit LSN %" PRIu64 "\n",
              doc->U64("incident_id"), doc->U64("last_clean_audit_lsn"));

  // The incident's root attribution (page/table/record), straight from the
  // persisted graph.
  const JsonValue* roots = doc->Find("roots");
  if (roots != nullptr && !roots->array().empty()) {
    std::printf("corrupt ranges:\n");
    for (const JsonValue& r : roots->array()) {
      std::printf("  [%" PRIu64 ", +%" PRIu64 ")", r.U64("off"),
                  r.U64("len"));
      if (const JsonValue* attr = r.Find("attribution"); attr != nullptr) {
        for (const JsonValue& a : attr->array()) {
          std::printf(" %s", a.Str("kind").c_str());
          if (const JsonValue* tn = a.Find("table_name"); tn != nullptr) {
            std::printf("(table %s", tn->string_value().c_str());
            if (const JsonValue* fs = a.Find("first_slot"); fs != nullptr) {
              std::printf(", slots %" PRIu64 "-%" PRIu64, fs->AsU64(),
                          a.U64("last_slot"));
            }
            std::printf(")");
          }
        }
      }
      std::printf("\n");
    }
  }

  // Reconstruct the graph to walk PathFor per deleted transaction.
  ProvenanceGraph g;
  if (const JsonValue* edges = doc->Find("edges"); edges != nullptr) {
    for (const JsonValue& ej : edges->array()) {
      ProvenanceEdge e;
      e.txn = ej.U64("txn");
      e.at_lsn = ej.U64("at_lsn");
      e.via = CorruptRange{ej.U64("via_off"), ej.U64("via_len")};
      e.from_txn = ej.U64("from_txn");
      std::string reason = ej.Str("reason");
      for (int i = 0;
           i <= static_cast<int>(ProvenanceReason::kCommittedAfterLimit);
           ++i) {
        if (reason ==
            ProvenanceReasonName(static_cast<ProvenanceReason>(i))) {
          e.reason = static_cast<ProvenanceReason>(i);
          break;
        }
      }
      g.edges.push_back(e);
    }
  }
  if (g.edges.empty()) {
    std::printf("no transactions were implicated\n");
    return 0;
  }
  std::printf("deleted transactions:\n");
  for (const ProvenanceEdge& top : g.edges) {
    std::printf("  txn %" PRIu64 ":\n", top.txn);
    for (const ProvenanceEdge* e : g.PathFor(top.txn)) {
      std::printf("    %s via [%" PRIu64 ", +%" PRIu64 ") at LSN %" PRIu64,
                  ProvenanceReasonName(e->reason), e->via.off, e->via.len,
                  e->at_lsn);
      if (e->from_txn != 0) {
        std::printf(" (tainted by txn %" PRIu64 ")\n", e->from_txn);
      } else {
        std::printf(" (rooted in the incident's corrupt ranges)\n");
      }
    }
  }
  return 0;
}

int CmdScrubMap(const std::string& dir) {
  DbFiles files(dir);
  std::string json;
  Status s = ReadFileToString(files.MetricsFile(), &json);
  if (!s.ok()) {
    std::fprintf(stderr, "no metrics snapshot at %s: %s\n",
                 files.MetricsFile().c_str(), s.ToString().c_str());
    return 1;
  }
  Result<JsonValue> doc = ParseJson(json);
  if (!doc.ok()) {
    std::fprintf(stderr, "cannot parse %s: %s\n", files.MetricsFile().c_str(),
                 doc.status().ToString().c_str());
    return 1;
  }
  const JsonValue* gauges = doc->Find("gauges");
  if (gauges == nullptr || !gauges->is_object()) {
    std::fprintf(stderr, "snapshot has no gauges object (schema %" PRIu64
                 ")\n", doc->U64("schema_version"));
    return 1;
  }
  std::vector<std::pair<std::string, int64_t>> gauge_list;
  for (const auto& [name, value] : gauges->members()) {
    gauge_list.emplace_back(name, value.AsI64());
  }
  std::string map =
      RenderScrubMap(gauge_list, doc->U64("captured_wall_ns"));
  std::fwrite(map.data(), 1, map.size(), stdout);
  return 0;
}

/// Renders the most recent unclean black box of the directory. A live
/// blackbox.bin that records an unclean death is the freshest evidence (the
/// crashed incarnation has not been reopened yet); otherwise the rotated
/// blackbox.prev.bin holds the one the last reopen ingested. A clean
/// current box with no rotated predecessor means nothing ever crashed.
int CmdPostmortem(const std::string& dir) {
  DbFiles files(dir);
  Result<BlackBoxReport> cur = ReadBlackBox(files.BlackBox());
  Result<BlackBoxReport> prev = ReadBlackBox(files.BlackBoxPrev());

  const BlackBoxReport* box = nullptr;
  const char* which = nullptr;
  if (cur.ok() && !cur->clean_shutdown) {
    box = &*cur;
    which = "blackbox.bin (not yet ingested by a reopen)";
  } else if (prev.ok() && !prev->clean_shutdown) {
    box = &*prev;
    which = "blackbox.prev.bin (rotated at the reopen after the crash)";
  }

  if (box == nullptr) {
    if (!cur.ok() && !prev.ok()) {
      std::printf("no black box at %s (database opened without a flight "
                  "recorder, or never opened)\n",
                  files.BlackBox().c_str());
    } else {
      std::printf("clean shutdown; no crash recorded\n");
    }
    return 0;
  }

  std::printf("black box: %s\n\n", which);
  std::fputs(RenderBlackBox(*box).c_str(), stdout);

  // The dossier the reopen filed for this death, if one has happened yet.
  Result<std::vector<JsonValue>> incidents =
      LoadIncidentFile(files.IncidentsFile());
  if (incidents.ok()) {
    const JsonValue* latest_crash = nullptr;
    for (const JsonValue& inc : *incidents) {
      if (inc.Str("source") == "crash") latest_crash = &inc;
    }
    if (latest_crash != nullptr) {
      std::printf("\ncrash dossier (incidents.jsonl):\n");
      std::fputs(RenderIncident(*latest_crash).c_str(), stdout);
    } else {
      std::printf("\nno crash dossier yet (reopen the database to file "
                  "one)\n");
    }
  }
  return 0;
}

}  // namespace
}  // namespace cwdb

int main(int argc, char** argv) {
  using namespace cwdb;
  if (argc < 3) return Usage();
  std::string cmd = argv[1];
  std::string dir = argv[2];
  if (cmd == "info") return CmdInfo(dir);
  if (cmd == "tables") return CmdTables(dir);
  if (cmd == "check") {
    bool repair = argc > 3 && std::string(argv[3]) == "--repair";
    return CmdCheck(dir, repair);
  }
  if (cmd == "logdump") {
    Lsn from = argc > 3 ? std::strtoull(argv[3], nullptr, 10) : 0;
    return CmdLogDump(dir, from);
  }
  if (cmd == "recover") {
    return CmdRecover(dir, argc > 3 ? argv[3] : "none");
  }
  if (cmd == "stats") {
    bool per_shard = argc > 3 && std::strcmp(argv[3], "--per-shard") == 0;
    return CmdStats(dir, per_shard);
  }
  if (cmd == "trace") return CmdTrace(dir);
  if (cmd == "trace-export") return CmdTraceExport(dir);
  if (cmd == "spans") {
    bool attribute = argc > 3 && std::strcmp(argv[3], "--attribute") == 0;
    return CmdSpans(dir, attribute);
  }
  if (cmd == "incidents") return CmdIncidents(dir);
  if (cmd == "repairs") return CmdRepairs(dir);
  if (cmd == "explain-recovery") {
    bool dot = argc > 3 && std::strcmp(argv[3], "--dot") == 0;
    return CmdExplainRecovery(dir, dot);
  }
  if (cmd == "scrub-map") return CmdScrubMap(dir);
  if (cmd == "postmortem") return CmdPostmortem(dir);
  return Usage();
}
