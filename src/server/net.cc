#include "server/net.h"

#include <arpa/inet.h>
#include <fcntl.h>

#include <cerrno>
#include <cmath>
#include <cstring>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

namespace gks::net {
namespace {

Status Errno(const std::string& what) {
  return Status::IOError(what + ": " + std::strerror(errno));
}

// Only request readers set a cap (responses are read uncapped).
Status LineTooLong(size_t max_line) {
  return Status::OutOfRange("request line exceeds " +
                            std::to_string(max_line) + " bytes");
}

}  // namespace

Result<int> Listen(const std::string& host, int port, int backlog) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Errno("socket");
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return Status::InvalidArgument("not an IPv4 address: " + host);
  }
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    Status status = Errno("bind " + host + ":" + std::to_string(port));
    ::close(fd);
    return status;
  }
  if (::listen(fd, backlog) != 0) {
    Status status = Errno("listen");
    ::close(fd);
    return status;
  }
  return fd;
}

Result<int> BoundPort(int fd) {
  sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    return Errno("getsockname");
  }
  return static_cast<int>(ntohs(addr.sin_port));
}

Result<int> AcceptWithTimeout(int listen_fd, int timeout_ms) {
  pollfd pfd{listen_fd, POLLIN, 0};
  int ready = ::poll(&pfd, 1, timeout_ms);
  if (ready < 0) {
    if (errno == EINTR) return -1;  // treat a signal as a timeout tick
    return Errno("poll");
  }
  if (ready == 0) return -1;
  int fd = ::accept(listen_fd, nullptr, nullptr);
  if (fd < 0) {
    if (errno == EINTR || errno == ECONNABORTED || errno == EAGAIN ||
        errno == EWOULDBLOCK) {
      return -1;
    }
    return Errno("accept");
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

Result<int> Connect(const std::string& host, int port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Errno("socket");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return Status::InvalidArgument("not an IPv4 address: " + host);
  }
  int rc;
  do {
    rc = ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  } while (rc != 0 && errno == EINTR);
  if (rc != 0) {
    Status status = Errno("connect " + host + ":" + std::to_string(port));
    ::close(fd);
    return status;
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

Result<int> ConnectWithTimeout(const std::string& host, int port,
                               int timeout_ms) {
  int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
  if (fd < 0) return Errno("socket");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return Status::InvalidArgument("not an IPv4 address: " + host);
  }
  int rc = ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  if (rc != 0 && errno != EINPROGRESS) {
    Status status = Errno("connect " + host + ":" + std::to_string(port));
    ::close(fd);
    return status;
  }
  if (rc != 0) {
    pollfd pfd{fd, POLLOUT, 0};
    int ready = ::poll(&pfd, 1, timeout_ms);
    if (ready <= 0) {
      ::close(fd);
      if (ready == 0) {
        return Status::DeadlineExceeded(
            "connect " + host + ":" + std::to_string(port) + " timed out after " +
            std::to_string(timeout_ms) + "ms");
      }
      return Errno("poll");
    }
    int error = 0;
    socklen_t len = sizeof(error);
    if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &error, &len) != 0 ||
        error != 0) {
      ::close(fd);
      errno = error != 0 ? error : errno;
      return Errno("connect " + host + ":" + std::to_string(port));
    }
  }
  // Back to blocking: callers frame reads with WaitReadable instead.
  int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags & ~O_NONBLOCK);
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

Status WaitReadable(int fd, int timeout_ms) {
  pollfd pfd{fd, POLLIN, 0};
  int ready;
  do {
    ready = ::poll(&pfd, 1, timeout_ms);
  } while (ready < 0 && errno == EINTR);
  if (ready < 0) return Errno("poll");
  if (ready == 0) {
    return Status::DeadlineExceeded("peer sent nothing for " +
                                    std::to_string(timeout_ms) + "ms");
  }
  return Status::OK();
}

void CloseFd(int fd) {
  if (fd >= 0) ::close(fd);
}

void ShutdownFd(int fd) {
  if (fd >= 0) ::shutdown(fd, SHUT_RDWR);
}

Status WriteAll(int fd, std::string_view data) {
  while (!data.empty()) {
    // MSG_NOSIGNAL: a peer that hung up must surface as EPIPE, not kill
    // the process — embedders (tests, library users) don't necessarily
    // ignore SIGPIPE the way the serve command does.
    ssize_t n = ::send(fd, data.data(), data.size(), MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Errno("write");
    }
    data.remove_prefix(static_cast<size_t>(n));
  }
  return Status::OK();
}

Status LineReader::ReadLine(std::string* line, Deadline deadline) {
  while (true) {
    const size_t newline = buffer_.find('\n', scanned_);
    if (newline != std::string::npos) {
      // The cap applies even when the whole line arrived in one chunk.
      if (newline > max_line_) return LineTooLong(max_line_);
      size_t end = newline;
      if (end > 0 && buffer_[end - 1] == '\r') --end;
      line->assign(buffer_, 0, end);
      buffer_.erase(0, newline + 1);
      scanned_ = 0;
      return Status::OK();
    }
    scanned_ = buffer_.size();
    if (buffer_.size() > max_line_) return LineTooLong(max_line_);
    if (eof_) {
      if (buffer_.empty()) return Status::NotFound("eof");
      return Status::IOError("connection closed mid-line");
    }
    if (deadline != Deadline::max()) {
      const double remaining_ms =
          std::chrono::duration<double, std::milli>(
              deadline - std::chrono::steady_clock::now())
              .count();
      if (remaining_ms <= 0.0) {
        return Status::DeadlineExceeded("no whole line before the deadline");
      }
      GKS_RETURN_IF_ERROR(
          WaitReadable(fd_, static_cast<int>(std::ceil(remaining_ms))));
    }
    char chunk[16384];
    ssize_t n = ::read(fd_, chunk, sizeof(chunk));
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(std::string("read: ") + std::strerror(errno));
    }
    if (n == 0) {
      eof_ = true;
      continue;
    }
    buffer_.append(chunk, static_cast<size_t>(n));
  }
}

}  // namespace gks::net
