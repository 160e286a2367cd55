#include "common/file_util.h"

#include <fcntl.h>
#include <libgen.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <vector>

#include "common/crashpoint.h"

namespace cwdb {

namespace {

Status Errno(const std::string& what, const std::string& path) {
  return Status::IoError(what + " " + path + ": " + std::strerror(errno));
}

/// Crash-point name "<scope>.<site>", or nullptr when no scope is set.
/// Storage lives in `buf` so the callers stay allocation-free when off.
const char* ScopedPoint(const char* scope, const char* site,
                        std::string* buf) {
  if (scope == nullptr) return nullptr;
  *buf = std::string(scope) + "." + site;
  return buf->c_str();
}

Status CheckPoint(const char* name) {
  return name == nullptr ? Status::OK() : crashpoint::Check(name);
}

}  // namespace

Status ReadFileToString(const std::string& path, std::string* out,
                        MissingFile missing) {
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    if (errno == ENOENT) {
      if (missing == MissingFile::kTreatAsEmpty) {
        out->clear();
        return Status::OK();
      }
      return Status::NotFound("no such file: " + path);
    }
    return Errno("open", path);
  }
  out->clear();
  char buf[1 << 16];
  ssize_t n;
  while ((n = ::read(fd, buf, sizeof(buf))) > 0) {
    out->append(buf, static_cast<size_t>(n));
  }
  Status s = n < 0 ? Errno("read", path) : Status::OK();
  ::close(fd);
  return s;
}

Status WriteFileAtomic(const std::string& path, const std::string& data,
                       const char* crash_scope) {
  std::string point;
  std::string tmp = path + ".tmp";
  int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return Errno("open", tmp);
  {
    // The tmp file is freshly truncated, so a sequential full write is a
    // positional write at offset 0.
    const char* p = ScopedPoint(crash_scope, "tmp_write", &point);
    Status s = p != nullptr
                   ? crashpoint::InjectedPWrite(p, fd, data.data(),
                                                data.size(), 0)
                   : PWriteAll(fd, data.data(), data.size(), 0);
    if (!s.ok()) {
      ::close(fd);
      return s;
    }
  }
  Status s = CheckPoint(ScopedPoint(crash_scope, "tmp_fsync", &point));
  if (s.ok() && ::fsync(fd) != 0) s = Errno("fsync", tmp);
  ::close(fd);
  CWDB_RETURN_IF_ERROR(s);
  CWDB_RETURN_IF_ERROR(CheckPoint(ScopedPoint(crash_scope, "rename", &point)));
  if (::rename(tmp.c_str(), path.c_str()) != 0) return Errno("rename", path);
  // fsync the directory so the rename itself is durable.
  CWDB_RETURN_IF_ERROR(
      CheckPoint(ScopedPoint(crash_scope, "dir_fsync", &point)));
  return FsyncParentDir(path);
}

Status PWriteAll(int fd, const void* data, size_t len, uint64_t offset) {
  const char* p = static_cast<const char*>(data);
  size_t done = 0;
  while (done < len) {
    ssize_t n = ::pwrite(fd, p + done, len - done,
                         static_cast<off_t>(offset + done));
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IoError(std::string("pwrite: ") + std::strerror(errno));
    }
    done += static_cast<size_t>(n);
  }
  return Status::OK();
}

Status PWriteVAll(int fd, struct iovec* iov, int iovcnt, uint64_t offset) {
  while (iovcnt > 0) {
    ssize_t n = ::pwritev(fd, iov, iovcnt, static_cast<off_t>(offset));
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IoError(std::string("pwritev: ") + std::strerror(errno));
    }
    offset += static_cast<uint64_t>(n);
    size_t left = static_cast<size_t>(n);
    while (iovcnt > 0 && left >= iov->iov_len) {  // Fully written buffers.
      left -= iov->iov_len;
      ++iov;
      --iovcnt;
    }
    if (iovcnt > 0) {  // A short write stopped inside this one.
      iov->iov_base = static_cast<char*>(iov->iov_base) + left;
      iov->iov_len -= left;
    }
  }
  return Status::OK();
}

Status PReadAll(int fd, void* data, size_t len, uint64_t offset) {
  char* p = static_cast<char*>(data);
  size_t done = 0;
  while (done < len) {
    ssize_t n =
        ::pread(fd, p + done, len - done, static_cast<off_t>(offset + done));
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IoError(std::string("pread: ") + std::strerror(errno));
    }
    if (n == 0) return Status::IoError("pread: unexpected EOF");
    done += static_cast<size_t>(n);
  }
  return Status::OK();
}

Status EnsureFileSize(const std::string& path, uint64_t size) {
  int fd = ::open(path.c_str(), O_RDWR | O_CREAT, 0644);
  if (fd < 0) return Errno("open", path);
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    Status s = Errno("fstat", path);
    ::close(fd);
    return s;
  }
  Status s = Status::OK();
  if (static_cast<uint64_t>(st.st_size) != size) {
    if (::ftruncate(fd, static_cast<off_t>(size)) != 0) {
      s = Errno("ftruncate", path);
    }
    // The new length (and, for a fresh file, its existence) must survive a
    // crash: a shorter-than-arena checkpoint image fails recovery's
    // PReadAll with "unexpected EOF".
    if (s.ok() && ::fsync(fd) != 0) s = Errno("fsync", path);
    if (s.ok()) s = FsyncParentDir(path);
  }
  ::close(fd);
  return s;
}

Status FsyncFd(int fd) {
  if (::fsync(fd) != 0) {
    return Status::IoError(std::string("fsync: ") + std::strerror(errno));
  }
  return Status::OK();
}

Status FsyncParentDir(const std::string& path) {
  std::vector<char> dir(path.begin(), path.end());
  dir.push_back('\0');
  int dfd = ::open(::dirname(dir.data()), O_RDONLY | O_DIRECTORY);
  if (dfd >= 0) {
    ::fsync(dfd);
    ::close(dfd);
  }
  return Status::OK();
}

bool FileExists(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0;
}

Status RemoveFileIfExists(const std::string& path) {
  if (::unlink(path.c_str()) != 0 && errno != ENOENT) {
    return Errno("unlink", path);
  }
  return Status::OK();
}

Status MakeDirs(const std::string& path) {
  std::string partial;
  size_t pos = 0;
  while (pos < path.size()) {
    size_t next = path.find('/', pos + 1);
    if (next == std::string::npos) next = path.size();
    partial = path.substr(0, next);
    if (!partial.empty() && partial != "/") {
      if (::mkdir(partial.c_str(), 0755) != 0 && errno != EEXIST) {
        return Errno("mkdir", partial);
      }
    }
    pos = next;
  }
  return Status::OK();
}

}  // namespace cwdb
