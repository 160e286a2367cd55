#include "ckpt/checkpoint.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <memory>

#include "ckpt/att_codec.h"
#include "common/coding.h"
#include "common/crashpoint.h"
#include "common/crc32.h"
#include "common/file_util.h"
#include "obs/forensics.h"
#include "protect/parity_repair.h"

namespace cwdb {

namespace {

constexpr uint64_t kMetaMagic = 0x434B50544D455441ull;  // "CKPTMETA"

/// Read buffer of the load-time comparison pass (rounded down to whole
/// pages, at least one page).
constexpr uint64_t kCompareChunkBytes = 1 << 20;

}  // namespace

std::string EncodeCheckpointMeta(const CheckpointMeta& meta,
                                 uint64_t arena_size, uint32_t page_size) {
  std::string out;
  PutFixed64(&out, kMetaMagic);
  PutFixed64(&out, meta.ck_end);
  PutFixed64(&out, arena_size);
  PutFixed32(&out, page_size);
  PutLengthPrefixed(&out, meta.att_blob);
  PutFixed32(&out, Crc32c(out.data(), out.size()));
  return out;
}

Result<CheckpointMeta> DecodeCheckpointMeta(Slice contents,
                                            uint64_t arena_size,
                                            uint32_t page_size) {
  if (contents.size() < 4) {
    return Status::Corruption("checkpoint meta too short");
  }
  const Slice body(contents.data(), contents.size() - 4);
  if (Crc32c(body.data(), body.size()) !=
      DecodeFixed32(contents.data() + body.size())) {
    return Status::Corruption("checkpoint meta CRC mismatch");
  }
  Decoder dec(body);
  if (dec.GetFixed64() != kMetaMagic) {
    return Status::Corruption("checkpoint meta bad magic");
  }
  CheckpointMeta meta;
  meta.ck_end = dec.GetFixed64();
  const uint64_t meta_arena_size = dec.GetFixed64();
  const uint32_t meta_page_size = dec.GetFixed32();
  Slice att = dec.GetLengthPrefixed();
  if (!dec.ok()) return Status::Corruption("checkpoint meta truncated");
  if (meta_arena_size != arena_size || meta_page_size != page_size) {
    return Status::Corruption("checkpoint geometry mismatch");
  }
  meta.att_blob.assign(att.data(), att.size());
  return meta;
}

Checkpointer::Checkpointer(const DbFiles& files, DbImage* image,
                           TxnManager* txns, SystemLog* log,
                           ProtectionManager* protection,
                           MetricsRegistry* metrics)
    : files_(files),
      image_(image),
      txns_(txns),
      log_(log),
      protection_(protection),
      metrics_(FallbackRegistry(metrics, &own_metrics_)) {
  ins_.checkpoints = metrics_->counter("ckpt.checkpoints");
  ins_.pages_written = metrics_->counter("ckpt.pages_written");
  ins_.latency_ns = metrics_->histogram("ckpt.latency_ns");
}

Status Checkpointer::InitializeFresh() {
  image_->MarkAllDirty(0);
  image_->MarkAllDirty(1);
  CWDB_RETURN_IF_ERROR(crashpoint::Check("ckpt.image.setsize"));
  CWDB_RETURN_IF_ERROR(EnsureFileSize(files_.CkptImage(0), image_->size()));
  CWDB_RETURN_IF_ERROR(crashpoint::Check("ckpt.image.setsize"));
  CWDB_RETURN_IF_ERROR(EnsureFileSize(files_.CkptImage(1), image_->size()));
  // Full first checkpoint into A; B stays all-dirty so the next checkpoint
  // writes it completely.
  return WriteCheckpointTo(0, /*certify=*/false, nullptr);
}

Status Checkpointer::Checkpoint(bool certify,
                                std::vector<CorruptRange>* corrupt) {
  CWDB_ASSIGN_OR_RETURN(int active, ReadAnchor());
  return WriteCheckpointTo(1 - active, certify, corrupt);
}

Status Checkpointer::WriteCheckpointTo(int which, bool certify,
                                       std::vector<CorruptRange>* corrupt) {
  const uint32_t page_size = image_->page_size();
  const uint64_t t0 = NowNs();
  in_flight_.store(true, std::memory_order_release);
  // Checkpoints are rare and each one is interesting: trace every pass
  // (forced; unsampled context when the tracer is off).
  Tracer* tracer = metrics_->tracer();
  uint64_t root_span = 0;
  SpanContext ctx = tracer->StartForcedTrace(&root_span);

  // --- Copy phase, under the exclusive checkpoint latch: no physical
  // update is in flight and no local log is mid-mutation, so the copied
  // pages + ATT are update-consistent with the log at CK_end. ---
  std::vector<uint64_t> pages;
  std::string page_bytes;
  std::string att_blob;
  std::string sidecar_blob;
  bool have_sidecar = false;
  Lsn ck_end;
  {
    ExclusiveGuard guard(txns_->checkpoint_latch());
    ck_end = log_->CurrentLsn();
    pages = image_->DirtyPages(which);
    page_bytes.resize(pages.size() * static_cast<size_t>(page_size));
    for (size_t i = 0; i < pages.size(); ++i) {
      std::memcpy(page_bytes.data() + i * page_size,
                  image_->At(pages[i] * page_size), page_size);
    }
    att_blob = EncodeAtt(*txns_);
    // Under the exclusive latch no update window (and no repair — repairs
    // take the latch shared) is in flight, so the codewords and parity
    // columns snapshotted here describe exactly the arena bytes the image
    // file will hold once the captured pages land.
    have_sidecar = protection_->SnapshotSidecar(ck_end, &sidecar_blob);
    // The snapshot is taken; pages dirtied from here on belong to the next
    // checkpoint of this image. If any durability step below fails, the
    // snapshot's bits are restored (see the failure path at the end) so
    // the next checkpoint to this image rewrites every captured page —
    // otherwise it would silently skip them and certify a stale image.
    image_->ClearDirty(which);
  }
  pages_written_last_ = pages.size();
  if (ctx.sampled()) {
    tracer->Record(ctx, SpanKind::kCheckpointCopy, t0, NowNs(), pages.size(),
                   page_size);
  }

  // --- Durability phase, off the critical path. ---
  Status s = WriteDurable(which, pages, page_bytes, ck_end,
                          std::move(att_blob), have_sidecar, sidecar_blob,
                          certify, corrupt, ctx);
  if (ctx.sampled()) {
    tracer->RecordWithId(ctx.Under(0), root_span, SpanKind::kCheckpoint, t0,
                         NowNs(), pages.size(),
                         static_cast<uint64_t>(which));
  }
  in_flight_.store(false, std::memory_order_release);
  if (!s.ok()) {
    // Nothing certified: the anchor still names the previous image. Put
    // the captured pages back in the dirty set (under the latch — the
    // bitmaps race with concurrent MarkDirty otherwise). Re-marking a
    // page that was re-dirtied meanwhile is a harmless superset.
    ExclusiveGuard guard(txns_->checkpoint_latch());
    image_->MarkPagesDirty(which, pages);
    return s;
  }
  ins_.checkpoints->Add();
  ins_.pages_written->Add(pages.size());
  ins_.latency_ns->Record(NowNs() - t0);
  metrics_->trace().Record(TraceEventType::kCheckpoint, ck_end, pages.size(),
                           static_cast<uint64_t>(which));
  return Status::OK();
}

Status Checkpointer::WriteDurable(int which,
                                  const std::vector<uint64_t>& pages,
                                  const std::string& page_bytes,
                                  Lsn ck_end, std::string att_blob,
                                  bool have_sidecar,
                                  const std::string& sidecar_blob,
                                  bool certify,
                                  std::vector<CorruptRange>* corrupt,
                                  const SpanContext& trace) {
  const uint32_t page_size = image_->page_size();
  Tracer* tracer = metrics_->tracer();
  const bool traced = trace.sampled();
  CWDB_RETURN_IF_ERROR(log_->Flush());

  const uint64_t t_write = traced ? NowNs() : 0;
  int fd = ::open(files_.CkptImage(which).c_str(), O_WRONLY);
  if (fd < 0) {
    return Status::IoError("open " + files_.CkptImage(which) + ": " +
                           std::strerror(errno));
  }
  for (size_t i = 0; i < pages.size(); ++i) {
    Status s = crashpoint::InjectedPWrite("ckpt.page.pwrite", fd,
                                          page_bytes.data() + i * page_size,
                                          page_size, pages[i] * page_size);
    if (!s.ok()) {
      ::close(fd);
      return s;
    }
  }
  if (traced) {
    tracer->Record(trace, SpanKind::kCheckpointWrite, t_write, NowNs(),
                   page_bytes.size(), pages.size());
  }
  const uint64_t t_fsync = traced ? NowNs() : 0;
  Status s = crashpoint::Check("ckpt.image.fsync");
  if (s.ok()) s = FsyncFd(fd);
  ::close(fd);
  if (traced) {
    tracer->Record(trace, SpanKind::kCheckpointFsync, t_fsync, NowNs());
  }
  CWDB_RETURN_IF_ERROR(s);

  // --- Certification audit (paper §4.2): after the checkpoint is written,
  // audit every page of the database. A clean full audit implies the
  // checkpoint is free of direct AND indirect corruption. The anchor is
  // only toggled on a clean audit. ---
  if (certify) {
    const uint64_t t_cert = traced ? NowNs() : 0;
    Status audit = protection_->AuditAll(corrupt);
    if (traced) {
      tracer->Record(trace, SpanKind::kCheckpointCertify, t_cert, NowNs(),
                     corrupt != nullptr ? corrupt->size() : 0);
    }
    if (!audit.ok()) return audit;
  }

  // The sidecar lands after the certified image and before the meta/anchor
  // toggle. Atomic replace with no crash point: a crash mid-write leaves
  // the previous sidecar, whose CK_end no longer matches the meta, so load
  // recognizes it as stale and simply skips verification.
  if (have_sidecar) {
    CWDB_RETURN_IF_ERROR(WriteFileAtomic(files_.CkptParity(which),
                                         sidecar_blob));
  } else {
    CWDB_RETURN_IF_ERROR(RemoveFileIfExists(files_.CkptParity(which)));
  }

  CheckpointMeta meta;
  meta.ck_end = ck_end;
  meta.att_blob = std::move(att_blob);
  CWDB_RETURN_IF_ERROR(WriteMeta(which, meta));

  return WriteFileAtomic(files_.Anchor(), which == 0 ? "A" : "B",
                         "ckpt.anchor");
}

Status Checkpointer::WriteMeta(int which, const CheckpointMeta& meta) {
  return WriteFileAtomic(
      files_.CkptMeta(which),
      EncodeCheckpointMeta(meta, image_->size(), image_->page_size()),
      "ckpt.meta");
}

Result<CheckpointMeta> Checkpointer::ReadMeta(int which) const {
  std::string contents;
  CWDB_RETURN_IF_ERROR(ReadFileToString(files_.CkptMeta(which), &contents));
  return DecodeCheckpointMeta(contents, image_->size(), image_->page_size());
}

Result<int> Checkpointer::ReadAnchor() const {
  std::string contents;
  Status s = ReadFileToString(files_.Anchor(), &contents);
  if (!s.ok()) return s;
  if (contents == "A") return 0;
  if (contents == "B") return 1;
  return Status::Corruption("bad checkpoint anchor: " + contents);
}

Result<CheckpointMeta> Checkpointer::ReadActiveMeta() const {
  CWDB_ASSIGN_OR_RETURN(int which, ReadAnchor());
  return ReadMeta(which);
}

Status Checkpointer::ReadImageBytes(DbPtr off, uint64_t len,
                                    void* out) const {
  CWDB_ASSIGN_OR_RETURN(int which, ReadAnchor());
  int fd = ::open(files_.CkptImage(which).c_str(), O_RDONLY);
  if (fd < 0) {
    return Status::IoError("open " + files_.CkptImage(which) + ": " +
                           std::strerror(errno));
  }
  Status s = PReadAll(fd, out, len, off);
  ::close(fd);
  return s;
}

Result<CheckpointMeta> Checkpointer::LoadActive() {
  CWDB_ASSIGN_OR_RETURN(int which, ReadAnchor());
  CWDB_ASSIGN_OR_RETURN(CheckpointMeta meta, ReadMeta(which));
  int fd = ::open(files_.CkptImage(which).c_str(), O_RDONLY);
  if (fd < 0) {
    return Status::IoError("open " + files_.CkptImage(which) + ": " +
                           std::strerror(errno));
  }
  Status s = PReadAll(fd, image_->base(), image_->size(), 0);
  ::close(fd);
  CWDB_RETURN_IF_ERROR(s);
  CWDB_RETURN_IF_ERROR(image_->ValidateHeader());
  // The old DESIGN §8 hole: certification audited the in-memory image, not
  // the bytes that landed on disk, so a flip during the image write was
  // loaded silently. Verify the loaded bytes against the checkpoint's
  // parity sidecar and repair in place what the budget covers.
  std::vector<CorruptRange> repaired;
  CWDB_RETURN_IF_ERROR(VerifyLoadedImage(which, meta, &repaired));
  // The volatile dirty sets died with the previous incarnation; rebuild
  // both from bytes. The loaded image's file holds the arena except where
  // the load repaired it. The other file holds whatever its last write
  // left (a whole checkpoint, a torn one, an older state), so it is dirty
  // exactly where its bytes differ. A skipped page is then one its target
  // file already holds, whatever happened before this load.
  image_->ClearDirty(which);
  MarkPagesDifferingFromFile(1 - which);
  for (const CorruptRange& r : repaired) image_->MarkDirty(r.off, r.len);
  return meta;
}

void Checkpointer::MarkPagesDifferingFromFile(int which) {
  const uint64_t page_size = image_->page_size();
  const uint64_t chunk =
      std::max(page_size, kCompareChunkBytes / page_size * page_size);
  std::unique_ptr<uint8_t[]> buf(new uint8_t[chunk]);
  image_->ClearDirty(which);
  int fd = ::open(files_.CkptImage(which).c_str(), O_RDONLY);
  if (fd < 0) {
    image_->MarkAllDirty(which);
    return;
  }
  std::vector<uint64_t> pages;
  for (uint64_t off = 0; off < image_->size(); off += chunk) {
    const uint64_t len = std::min(chunk, image_->size() - off);
    if (!PReadAll(fd, buf.get(), len, off).ok()) {
      ::close(fd);
      image_->MarkAllDirty(which);
      return;
    }
    for (uint64_t p = 0; p < len; p += page_size) {
      if (std::memcmp(buf.get() + p, image_->At(off + p), page_size) != 0) {
        pages.push_back((off + p) / page_size);
      }
    }
  }
  ::close(fd);
  image_->MarkPagesDirty(which, pages);
}

Status Checkpointer::VerifyLoadedImage(int which, const CheckpointMeta& meta,
                                       std::vector<CorruptRange>* repaired) {
  std::string blob;
  Status read = ReadFileToString(files_.CkptParity(which), &blob,
                                 MissingFile::kTreatAsEmpty);
  if (!read.ok() || blob.empty()) return Status::OK();  // No sidecar.
  Result<ParitySidecar> decoded = DecodeParitySidecar(blob);
  if (!decoded.ok()) {
    // Torn or damaged sidecar: no verification possible, never a failure.
    metrics_->counter("repair.sidecar_invalid")->Add();
    return Status::OK();
  }
  const ParitySidecar& sidecar = decoded.value();
  if (sidecar.ck_end != meta.ck_end || sidecar.arena_size != image_->size()) {
    // A crash between the image write and the sidecar replace leaves the
    // previous checkpoint's sidecar behind; its CK_end gives it away.
    metrics_->counter("repair.sidecar_stale")->Add();
    return Status::OK();
  }

  uint64_t regions_verified = 0;
  std::vector<CorruptRange> detected =
      VerifyImageAgainstSidecar(sidecar, image_->base(), &regions_verified);
  metrics_->counter("repair.load_verified_regions")->Add(regions_verified);
  if (detected.empty()) return Status::OK();

  ForensicsRecorder* forensics = protection_->forensics();
  // Detection dossier before the repair touches anything: its hexdump is
  // the only durable record of the corrupt bytes. (The codeword probe may
  // report stale live-table values here — the table still describes the
  // pre-load arena — which is accepted noise; the sidecar evidence is
  // what located the damage.)
  uint64_t detection_id = 0;
  if (forensics != nullptr) {
    char detail[128];
    std::snprintf(detail, sizeof(detail),
                  "checkpoint image %c failed parity-sidecar verification at "
                  "load; attempting repair",
                  which == 0 ? 'A' : 'B');
    detection_id = forensics->RecordIncident(
        IncidentSource::kCkptLoad, meta.ck_end, /*last_clean_audit_lsn=*/0,
        detected, detail);
  }

  ImageRepairReport report;
  RepairImageWithSidecar(sidecar, image_->base(), detected, /*apply=*/true,
                         &report);
  metrics_->counter("repair.load_repaired")->Add(report.repaired.size());
  *repaired = report.repaired;
  metrics_->counter("repair.load_unrepaired")->Add(report.unrepaired.size());
  for (const CorruptRange& r : report.repaired) {
    metrics_->trace().Record(TraceEventType::kRepair, meta.ck_end, r.off,
                             r.len);
  }
  if (!report.repaired.empty() && forensics != nullptr) {
    char detail[160];
    std::snprintf(detail, sizeof(detail),
                  "reconstructed %zu checkpoint-load region(s) in place from "
                  "the parity sidecar (%zu beyond the correction budget)",
                  report.repaired.size(), report.unrepaired.size());
    ForensicsRecorder::IncidentExtras extras;
    extras.linked_incident_id = detection_id;
    extras.repair_deltas = report.repair_deltas;
    forensics->RecordIncident(IncidentSource::kRepair, meta.ck_end,
                              /*last_clean_audit_lsn=*/0, report.repaired,
                              detail, extras);
  }
  if (!report.unrepaired.empty()) {
    // Delete-transaction recovery presumes a clean checkpoint, so it cannot
    // paper over this. The silent load is gone; what remains is loud.
    return Status::Corruption(
        "checkpoint image corrupt beyond parity correction budget");
  }
  return Status::OK();
}

}  // namespace cwdb
