// Contract of the whole-file reader and the atomic writer
// (common/file_io.h): a rewrite never disturbs a reader that has the old
// file open, never leaves a temporary behind, fails without touching the
// target, and a missing file reads as NotFound.

#include "common/file_io.h"

#include <fcntl.h>
#include <unistd.h>

#include <filesystem>
#include <string>
#include <vector>

#include "gtest/gtest.h"

namespace gks {
namespace {

std::string FreshDir(const std::string& name) {
  std::string dir = ::testing::TempDir() + "file_io_" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

std::vector<std::string> Entries(const std::string& dir) {
  std::vector<std::string> names;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    names.push_back(entry.path().filename().string());
  }
  return names;
}

TEST(FileIoTest, OpenDescriptorKeepsOldBytesAcrossALongerRewrite) {
  const std::string path = FreshDir("open_fd") + "/index.gksidx";
  const std::string old_bytes(4096, 'a');
  const std::string new_bytes(3 * 4096, 'b');
  ASSERT_TRUE(WriteStringToFile(path, old_bytes).ok());
  const int fd = ::open(path.c_str(), O_RDONLY);
  ASSERT_GE(fd, 0);

  ASSERT_TRUE(WriteStringToFile(path, new_bytes).ok());
  std::string through_fd(new_bytes.size(), '\0');
  const ssize_t got = ::pread(fd, through_fd.data(), through_fd.size(), 0);
  ::close(fd);
  ASSERT_GE(got, 0);
  through_fd.resize(static_cast<size_t>(got));
  EXPECT_EQ(through_fd, old_bytes);
  std::string reread;
  ASSERT_TRUE(ReadFileToString(path, &reread).ok());
  EXPECT_EQ(reread, new_bytes);
}

TEST(FileIoTest, NoTemporaryFileRemainsAfterAWrite) {
  const std::string dir = FreshDir("no_tmp");
  ASSERT_TRUE(WriteStringToFile(dir + "/target", "first").ok());
  ASSERT_TRUE(WriteStringToFile(dir + "/target", "second").ok());
  EXPECT_EQ(Entries(dir), std::vector<std::string>{"target"});
}

TEST(FileIoTest, FailedRenameLeavesTargetAndNoTemporary) {
  const std::string dir = FreshDir("target_is_dir");
  const std::string target = dir + "/target";
  std::filesystem::create_directory(target);
  ASSERT_TRUE(WriteStringToFile(target + "/keep", "kept").ok());

  Status status = WriteStringToFile(target, "bytes");
  EXPECT_EQ(status.code(), StatusCode::kIOError) << status.ToString();
  EXPECT_TRUE(std::filesystem::is_directory(target));
  EXPECT_EQ(Entries(target), std::vector<std::string>{"keep"});
  EXPECT_EQ(Entries(dir), std::vector<std::string>{"target"});
}

TEST(FileIoTest, MissingFileIsNotFoundOtherFailuresAreIOError) {
  const std::string dir = FreshDir("reader");
  std::string contents;
  EXPECT_EQ(ReadFileToString(dir + "/absent", &contents).code(),
            StatusCode::kNotFound);
  EXPECT_EQ(ReadFileToString(dir, &contents).code(), StatusCode::kIOError);
}

}  // namespace
}  // namespace gks
