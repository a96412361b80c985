#ifndef GKS_COMMON_FLAGS_H_
#define GKS_COMMON_FLAGS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"

namespace gks {

/// Minimal command-line parser for the CLI and tools: supports
/// `--name=value`, `--name value`, bare boolean `--name`, and positional
/// arguments. No registration needed; callers read typed values with
/// defaults and may validate the flag set against a known list.
class FlagParser {
 public:
  FlagParser(int argc, const char* const* argv);

  const std::vector<std::string>& positional() const { return positional_; }

  bool Has(const std::string& name) const;
  std::string GetString(const std::string& name,
                        const std::string& default_value) const;
  int64_t GetInt(const std::string& name, int64_t default_value) const;
  double GetDouble(const std::string& name, double default_value) const;
  /// Bare `--flag` and `--flag=true/1/yes` are true.
  bool GetBool(const std::string& name, bool default_value = false) const;

  /// InvalidArgument if a parsed flag is in none of the lists (names
  /// without the leading dashes), if a flag of `counts` — a count, size
  /// or port — is present with a value that is not a whole non-negative
  /// base-10 number, or if a flag of `decimals` — a scale or a time
  /// budget — is present with a value that is not a finite non-negative
  /// decimal number in full.
  Status Validate(const std::vector<std::string>& known,
                  const std::vector<std::string>& counts = {},
                  const std::vector<std::string>& decimals = {}) const;

 private:
  std::map<std::string, std::string> flags_;
  std::vector<std::string> positional_;
};

}  // namespace gks

#endif  // GKS_COMMON_FLAGS_H_
