#ifndef GKS_SERVER_NET_H_
#define GKS_SERVER_NET_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "common/result.h"

namespace gks::net {

/// Thin POSIX socket layer shared by the server accept loop, the client
/// library and the tests. Everything reports through Status/Result; no
/// exceptions, no global state. IPv4 only — the server binds loopback by
/// default and GKS deployments front it with a real proxy for anything
/// fancier (docs/SERVER.md).

/// Binds and listens on host:port. `port == 0` asks the kernel for an
/// ephemeral port — read it back with BoundPort (how tests and the smoke
/// script avoid collisions). Returns the listening fd.
Result<int> Listen(const std::string& host, int port, int backlog = 128);

/// The local port a bound socket ended up on.
Result<int> BoundPort(int fd);

/// Waits up to `timeout_ms` for a connection. Returns the accepted fd,
/// -1 on timeout (so callers can poll shutdown/reload flags), an error
/// Status on a real failure.
Result<int> AcceptWithTimeout(int listen_fd, int timeout_ms);

/// Blocking connect to host:port; returns the connected fd.
Result<int> Connect(const std::string& host, int port);

/// Connect with a budget: non-blocking connect + poll. DeadlineExceeded
/// when the peer did not accept within `timeout_ms` (the coordinator
/// treats that as a failed shard attempt, not a hang).
Result<int> ConnectWithTimeout(const std::string& host, int port,
                               int timeout_ms);

/// Waits up to `timeout_ms` for the fd to become readable. OK when
/// readable, DeadlineExceeded on timeout, IOError on poll failure — the
/// building block of budgeted response reads (docs/DISTRIBUTED.md).
Status WaitReadable(int fd, int timeout_ms);

/// Close if `fd >= 0`; idempotent via the caller keeping -1 after.
void CloseFd(int fd);

/// Half-close both directions — unblocks a peer (or own thread) stuck in
/// read() without racing the fd number like close() would.
void ShutdownFd(int fd);

/// Writes the whole buffer, looping over partial writes and EINTR.
Status WriteAll(int fd, std::string_view data);

/// Buffered newline-delimited reader over one socket — the one wire
/// framing of the query protocol (docs/SERVER.md): the server reads
/// requests through it, the client and the coordinator read responses.
/// Lines longer than `max_line` fail with OutOfRange *before* buffering
/// the rest, which is how the server bounds per-connection memory against
/// oversized requests; response readers pass kUnbounded. Each buffered
/// byte is scanned for the newline once, however many reads a long line
/// (a shard partial of hundreds of KB) takes to arrive. The reader does
/// not own the fd.
class LineReader {
 public:
  static constexpr size_t kUnbounded = SIZE_MAX;
  using Deadline = std::chrono::steady_clock::time_point;

  explicit LineReader(int fd = -1, size_t max_line = 1 << 20)
      : fd_(fd), max_line_(max_line) {}

  int fd() const { return fd_; }

  /// OK: one line in `*line`, terminator stripped (\n or \r\n).
  /// NotFound: clean EOF with no buffered partial line.
  /// OutOfRange: line exceeded max_line (connection should be dropped —
  ///   the stream can no longer be framed).
  /// IOError: read failure / EOF mid-line.
  /// DeadlineExceeded: `deadline` passed before the whole line arrived
  ///   (the default never passes).
  Status ReadLine(std::string* line, Deadline deadline = Deadline::max());

 private:
  int fd_;
  size_t max_line_;
  std::string buffer_;
  size_t scanned_ = 0;  // buffer_[0, scanned_) holds no newline
  bool eof_ = false;
};

}  // namespace gks::net

#endif  // GKS_SERVER_NET_H_
