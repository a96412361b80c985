#include "common/flags.h"

#include "gtest/gtest.h"

namespace gks {
namespace {

FlagParser Parse(std::initializer_list<const char*> args) {
  std::vector<const char*> argv{"prog"};
  argv.insert(argv.end(), args.begin(), args.end());
  return FlagParser(static_cast<int>(argv.size()), argv.data());
}

TEST(FlagsTest, PositionalAndFlags) {
  FlagParser flags = Parse({"search", "index.gksidx", "--s=2", "--top", "5"});
  EXPECT_EQ(flags.positional(),
            (std::vector<std::string>{"search", "index.gksidx"}));
  EXPECT_EQ(flags.GetInt("s", 1), 2);
  EXPECT_EQ(flags.GetInt("top", 0), 5);
  EXPECT_EQ(flags.GetInt("missing", 7), 7);
}

TEST(FlagsTest, BoolForms) {
  FlagParser flags = Parse({"--refine", "--verbose=true", "--quiet=false"});
  EXPECT_TRUE(flags.GetBool("refine"));
  EXPECT_TRUE(flags.GetBool("verbose"));
  EXPECT_FALSE(flags.GetBool("quiet"));
  EXPECT_FALSE(flags.GetBool("missing"));
  EXPECT_TRUE(flags.GetBool("missing", true));
}

TEST(FlagsTest, StringsAndDoubles) {
  FlagParser flags = Parse({"--name=hello world", "--scale=0.25"});
  EXPECT_EQ(flags.GetString("name", ""), "hello world");
  EXPECT_DOUBLE_EQ(flags.GetDouble("scale", 1.0), 0.25);
}

TEST(FlagsTest, ValidateRejectsUnknown) {
  FlagParser flags = Parse({"--good=1", "--oops=2"});
  EXPECT_TRUE(flags.Validate({"good", "oops"}).ok());
  Status status = flags.Validate({"good"});
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("oops"), std::string::npos);
}

TEST(FlagsTest, ValidateAcceptsWholeNonNegativeCounts) {
  FlagParser flags = Parse({"--threads=4", "--port=0", "--name=x",
                            "--cache-bytes=9223372036854775807"});
  EXPECT_TRUE(
      flags.Validate({"name"}, {"threads", "port", "cache-bytes"}).ok());
  // Counts are known flags too, and absent counts are not checked.
  EXPECT_TRUE(Parse({"--threads=2"}).Validate({}, {"threads", "queue"}).ok());
  EXPECT_FALSE(Parse({"--threads=2"}).Validate({"queue"}).ok());
}

TEST(FlagsTest, ValidateRejectsMalformedCounts) {
  // atoll would read these as -1 (a huge size_t after the cast), 0, 12,
  // 1, 0 and a wrapped value; each must be a usage error instead.
  for (const char* arg :
       {"--threads=-1", "--threads=abc", "--threads=12abc", "--threads=1.5",
        "--threads=", "--threads= 3", "--threads=+3", "--threads=-0",
        "--threads=99999999999999999999", "--threads"}) {
    FlagParser flags = Parse({arg});
    Status status = flags.Validate({}, {"threads"});
    ASSERT_FALSE(status.ok()) << arg;
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << arg;
    EXPECT_NE(status.message().find("--threads"), std::string::npos) << arg;
  }
  // `--threads -1`: the parser does not take a dash-led value, so the
  // flag is present and empty, and `-1` is positional.
  FlagParser spaced = Parse({"--threads", "-1"});
  EXPECT_FALSE(spaced.Validate({}, {"threads"}).ok());
  // Flags outside the count list keep their free-form values.
  EXPECT_TRUE(Parse({"--deadline-ms=-1"}).Validate({"deadline-ms"}).ok());
}

TEST(FlagsTest, ValidateChecksDecimals) {
  // atof would read "abc" as 0 and let -1, inf, nan and an overflowing
  // 1e400 through to a size or deadline; each must be a usage error.
  for (const char* arg :
       {"--scale=abc", "--scale=-1", "--scale=inf", "--scale=nan",
        "--scale=1e400", "--scale=0.5x", "--scale= 1", "--scale=",
        "--scale"}) {
    Status status = Parse({arg}).Validate({}, {}, {"scale"});
    ASSERT_FALSE(status.ok()) << arg;
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << arg;
    EXPECT_NE(status.message().find("--scale"), std::string::npos) << arg;
  }
  for (const char* arg : {"--scale=0.5", "--scale=0", "--scale=2",
                          "--scale=1e-3"}) {
    EXPECT_TRUE(Parse({arg}).Validate({}, {}, {"scale"}).ok()) << arg;
  }
  EXPECT_DOUBLE_EQ(Parse({"--scale=0.5"}).GetDouble("scale", 1.0), 0.5);
  // Decimals are known flags too; a count keeps the whole-number rule.
  EXPECT_FALSE(Parse({"--threads=0.5"})
                   .Validate({}, {"threads"}, {"scale"})
                   .ok());
}

TEST(FlagsTest, BareFlagBeforePositionalNeedsEquals) {
  // `--flag value` consumes the value; the documented workaround is
  // `--flag=...` when the next token is positional.
  FlagParser flags = Parse({"--flag", "positional"});
  EXPECT_EQ(flags.GetString("flag", ""), "positional");
  EXPECT_TRUE(flags.positional().empty());
}

}  // namespace
}  // namespace gks
