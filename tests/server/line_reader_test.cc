// net::LineReader, the one newline framing of the wire protocol
// (docs/SERVER.md): the server reads requests through it, the client and
// the coordinator read responses. Driven over a socketpair.

#include <sys/socket.h>

#include <chrono>
#include <string>
#include <string_view>
#include <thread>

#include "gtest/gtest.h"
#include "server/net.h"

namespace gks {
namespace {

/// A connected socket pair; both ends closed on destruction.
struct SocketPair {
  SocketPair() {
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  }
  ~SocketPair() {
    net::CloseFd(fds[0]);
    net::CloseFd(fds[1]);
  }
  int reader() const { return fds[0]; }
  int writer() const { return fds[1]; }
  int fds[2] = {-1, -1};
};

TEST(LineReaderTest, LongLineWrittenInSmallPiecesArrivesIntact) {
  // A response far larger than one read (a shard partial is hundreds of
  // KB), written 1 KiB at a time, then a short line behind it.
  SocketPair pair;
  std::string payload(2u << 20, 'x');
  for (size_t i = 0; i < payload.size(); i += 997) {
    payload[i] = static_cast<char>('a' + i % 26);
  }
  std::thread writer([&] {
    const std::string stream = payload + "\nnext\n";
    for (size_t at = 0; at < stream.size(); at += 1024) {
      ASSERT_TRUE(net::WriteAll(pair.writer(),
                                std::string_view(stream).substr(at, 1024))
                      .ok());
    }
  });
  net::LineReader reader(pair.reader(), net::LineReader::kUnbounded);
  std::string line;
  Status status = reader.ReadLine(&line);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(line.size(), payload.size());
  EXPECT_TRUE(line == payload);
  status = reader.ReadLine(&line);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(line, "next");
  writer.join();
}

TEST(LineReaderTest, CarriageReturnIsStripped) {
  SocketPair pair;
  ASSERT_TRUE(net::WriteAll(pair.writer(), "first\r\nsecond\n\r\n").ok());
  net::CloseFd(pair.fds[1]);
  pair.fds[1] = -1;
  net::LineReader reader(pair.reader());
  std::string line;
  ASSERT_TRUE(reader.ReadLine(&line).ok());
  EXPECT_EQ(line, "first");
  ASSERT_TRUE(reader.ReadLine(&line).ok());
  EXPECT_EQ(line, "second");
  ASSERT_TRUE(reader.ReadLine(&line).ok());
  EXPECT_EQ(line, "");
  EXPECT_EQ(reader.ReadLine(&line).code(), StatusCode::kNotFound);  // EOF
}

TEST(LineReaderTest, DeadlineGivesDeadlineExceeded) {
  SocketPair pair;
  net::LineReader reader(pair.reader(), net::LineReader::kUnbounded);
  std::string line;
  // Already expired: no read is attempted.
  EXPECT_EQ(reader
                .ReadLine(&line, std::chrono::steady_clock::now() -
                                     std::chrono::milliseconds(1))
                .code(),
            StatusCode::kDeadlineExceeded);
  // Expires while a partial line waits for its newline.
  ASSERT_TRUE(net::WriteAll(pair.writer(), "partial").ok());
  EXPECT_EQ(reader
                .ReadLine(&line, std::chrono::steady_clock::now() +
                                     std::chrono::milliseconds(20))
                .code(),
            StatusCode::kDeadlineExceeded);
  // The buffered bytes stay: the rest of the line completes it.
  ASSERT_TRUE(net::WriteAll(pair.writer(), " line\n").ok());
  ASSERT_TRUE(reader.ReadLine(&line).ok());
  EXPECT_EQ(line, "partial line");
}

}  // namespace
}  // namespace gks
