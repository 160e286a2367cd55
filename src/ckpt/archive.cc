#include "ckpt/archive.h"

#include <cstring>

#include "common/file_util.h"
#include "storage/layout.h"

namespace cwdb {

namespace {

constexpr char kArchiveImage[] = "/archived.img";
constexpr char kArchiveMeta[] = "/archived.meta";
constexpr char kArchiveLog[] = "/system.log";
constexpr char kArchiveAudit[] = "/audit.meta";

Status CopyFile(const std::string& from, const std::string& to) {
  std::string contents;
  CWDB_RETURN_IF_ERROR(ReadFileToString(from, &contents));
  return WriteFileAtomic(to, contents, "archive.file");
}

}  // namespace

Result<CheckpointMeta> CreateArchive(const DbFiles& db_files,
                                     const std::string& archive_dir) {
  CWDB_RETURN_IF_ERROR(MakeDirs(archive_dir));
  std::string anchor;
  CWDB_RETURN_IF_ERROR(ReadFileToString(db_files.Anchor(), &anchor));
  int which = anchor == "A" ? 0 : anchor == "B" ? 1 : -1;
  if (which < 0) return Status::Corruption("bad checkpoint anchor");

  std::string image;
  CWDB_RETURN_IF_ERROR(ReadFileToString(db_files.CkptImage(which), &image));
  std::string meta_bytes;
  CWDB_RETURN_IF_ERROR(ReadFileToString(db_files.CkptMeta(which), &meta_bytes));
  // The meta must describe the image it is archived with: decode it
  // against the geometry in the image's own header.
  if (image.size() < kHeaderOff + sizeof(DbHeaderRaw)) {
    return Status::Corruption("checkpoint image too small");
  }
  DbHeaderRaw header;
  std::memcpy(&header, image.data() + kHeaderOff, sizeof(header));
  CWDB_ASSIGN_OR_RETURN(
      CheckpointMeta meta,
      DecodeCheckpointMeta(meta_bytes, header.arena_size, header.page_size));

  CWDB_RETURN_IF_ERROR(
      WriteFileAtomic(archive_dir + kArchiveImage, image, "archive.file"));
  CWDB_RETURN_IF_ERROR(WriteFileAtomic(archive_dir + kArchiveMeta, meta_bytes,
                                       "archive.file"));
  CWDB_RETURN_IF_ERROR(
      CopyFile(db_files.SystemLog(), archive_dir + kArchiveLog));
  if (FileExists(db_files.AuditMeta())) {
    CWDB_RETURN_IF_ERROR(
        CopyFile(db_files.AuditMeta(), archive_dir + kArchiveAudit));
  }
  return meta;
}

Status RestoreArchive(const std::string& archive_dir,
                      const DbFiles& db_files) {
  if (!FileExists(archive_dir + kArchiveImage) ||
      !FileExists(archive_dir + kArchiveMeta)) {
    return Status::NotFound("no archive at " + archive_dir);
  }
  // Install as checkpoint A and point the anchor at it. The live log stays
  // in place: it is a superset of what the archive saw (append-only). If
  // the live log is damaged or missing, fall back to the archived copy.
  CWDB_RETURN_IF_ERROR(
      CopyFile(archive_dir + kArchiveImage, db_files.CkptImage(0)));
  CWDB_RETURN_IF_ERROR(
      CopyFile(archive_dir + kArchiveMeta, db_files.CkptMeta(0)));
  if (!FileExists(db_files.SystemLog())) {
    CWDB_RETURN_IF_ERROR(
        CopyFile(archive_dir + kArchiveLog, db_files.SystemLog()));
  }
  if (FileExists(archive_dir + kArchiveAudit)) {
    CWDB_RETURN_IF_ERROR(
        CopyFile(archive_dir + kArchiveAudit, db_files.AuditMeta()));
  }
  return WriteFileAtomic(db_files.Anchor(), "A");
}

}  // namespace cwdb
