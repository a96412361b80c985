#include "common/file_io.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstring>

namespace gks {
namespace {

Status ErrnoStatus(const char* step, const std::string& path) {
  return Status::IOError(std::string(step) + " '" + path +
                         "': " + std::strerror(errno));
}

Status WriteAll(int fd, std::string_view bytes, const std::string& path) {
  while (!bytes.empty()) {
    ssize_t n = ::write(fd, bytes.data(), bytes.size());
    if (n < 0) {
      if (errno == EINTR) continue;
      return ErrnoStatus("write", path);
    }
    bytes.remove_prefix(static_cast<size_t>(n));
  }
  return Status::OK();
}

}  // namespace

Status ReadFileToString(const std::string& path, std::string* contents) {
  int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    if (errno == ENOENT) {
      return Status::NotFound("'" + path + "' does not exist");
    }
    return ErrnoStatus("open", path);
  }
  contents->clear();
  struct stat st;
  if (::fstat(fd, &st) == 0 && st.st_size > 0) {
    contents->reserve(static_cast<size_t>(st.st_size));
  }
  char buf[1 << 16];
  Status status = Status::OK();
  for (;;) {
    ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n > 0) {
      contents->append(buf, static_cast<size_t>(n));
    } else if (n == 0) {
      break;
    } else if (errno != EINTR) {
      status = ErrnoStatus("read", path);
      break;
    }
  }
  ::close(fd);
  return status;
}

Status WriteStringToFile(const std::string& path, std::string_view contents) {
  // Unique per call, so concurrent writers of one target never share a
  // temporary file; the `.tmp` suffix lets RtIndex::Open sweep the
  // leftovers of a crash.
  static std::atomic<uint64_t> next_tmp{0};
  const std::string tmp = path + "." + std::to_string(::getpid()) + "-" +
                          std::to_string(next_tmp++) + ".tmp";
  int fd = ::open(tmp.c_str(), O_CREAT | O_TRUNC | O_WRONLY | O_CLOEXEC, 0666);
  if (fd < 0) return ErrnoStatus("create", tmp);
  Status status = WriteAll(fd, contents, tmp);
  if (status.ok() && ::fsync(fd) != 0) status = ErrnoStatus("fsync", tmp);
  if (::close(fd) != 0 && status.ok()) status = ErrnoStatus("close", tmp);
  if (status.ok() && ::rename(tmp.c_str(), path.c_str()) != 0) {
    status = Status::IOError("rename '" + tmp + "' -> '" + path +
                             "': " + std::strerror(errno));
  }
  if (!status.ok()) {
    ::unlink(tmp.c_str());
    return status;
  }
  return SyncDirOf(path);
}

Status SyncDirOf(const std::string& path) {
  // The parent of "/name" is "/" itself.
  size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos
                              ? std::string(".")
                              : path.substr(0, std::max<size_t>(slash, 1));
  int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) return ErrnoStatus("open directory", dir);
  Status status = Status::OK();
  if (::fsync(fd) != 0 && errno != EINVAL) {
    status = ErrnoStatus("fsync directory", dir);
  }
  ::close(fd);
  return status;
}

}  // namespace gks
