#ifndef CWDB_COMMON_FILE_UTIL_H_
#define CWDB_COMMON_FILE_UTIL_H_

#include <sys/uio.h>

#include <cstdint>
#include <string>

#include "common/status.h"

namespace cwdb {

/// Small POSIX file helpers used by the checkpointer and recovery. All
/// return Status; none throw.

/// What ReadFileToString does when the file does not exist.
enum class MissingFile {
  kError,         ///< Return NotFound.
  kTreatAsEmpty,  ///< Return OK with *out empty (a never-written file).
};

/// Reads the whole file into *out. A missing file follows `missing`.
Status ReadFileToString(const std::string& path, std::string* out,
                        MissingFile missing = MissingFile::kError);

/// Writes `data` to a temp file, fsyncs, renames over `path`, and fsyncs
/// the parent directory — the classic atomic small-file update (used for
/// the checkpoint anchor and side notes). When `crash_scope` is non-null,
/// the four internal durability boundaries are crash points named
/// <scope>.tmp_write, <scope>.tmp_fsync, <scope>.rename and
/// <scope>.dir_fsync (see common/crashpoint.h).
Status WriteFileAtomic(const std::string& path, const std::string& data,
                       const char* crash_scope = nullptr);

/// pwrite the full buffer at `offset` of the (pre-opened) fd.
Status PWriteAll(int fd, const void* data, size_t len, uint64_t offset);

/// pwritev the `iovcnt` buffers of `iov`, end to end, at `offset`. `iov`
/// is advanced past what short writes wrote.
Status PWriteVAll(int fd, struct iovec* iov, int iovcnt, uint64_t offset);

/// pread exactly `len` bytes at `offset`.
Status PReadAll(int fd, void* data, size_t len, uint64_t offset);

/// Creates (if absent) a file of exactly `size` bytes. Any creation or
/// resize is made durable (file fsync + parent directory fsync) before
/// returning, so a crash cannot leave the file shorter than `size`.
Status EnsureFileSize(const std::string& path, uint64_t size);

Status FsyncFd(int fd);

/// fsyncs the directory containing `path` (durability of a creation or
/// rename within it). Best-effort on filesystems without directory fds.
Status FsyncParentDir(const std::string& path);

bool FileExists(const std::string& path);

Status RemoveFileIfExists(const std::string& path);

/// mkdir -p.
Status MakeDirs(const std::string& path);

}  // namespace cwdb

#endif  // CWDB_COMMON_FILE_UTIL_H_
