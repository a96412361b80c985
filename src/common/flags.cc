#include "common/flags.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdlib>

#include "common/string_util.h"

namespace gks {

FlagParser::FlagParser(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (!StartsWith(arg, "--")) {
      positional_.push_back(std::move(arg));
      continue;
    }
    std::string body = arg.substr(2);
    size_t eq = body.find('=');
    if (eq != std::string::npos) {
      flags_[body.substr(0, eq)] = body.substr(eq + 1);
    } else if (i + 1 < argc && argv[i + 1][0] != '-') {
      // `--name value` form — but only when the next token is clearly a
      // value; bare flags before positionals use `--name=value` instead.
      flags_[body] = argv[++i];
    } else {
      flags_[body] = "";
    }
  }
}

bool FlagParser::Has(const std::string& name) const {
  return flags_.count(name) > 0;
}

std::string FlagParser::GetString(const std::string& name,
                                  const std::string& default_value) const {
  auto it = flags_.find(name);
  return it == flags_.end() ? default_value : it->second;
}

int64_t FlagParser::GetInt(const std::string& name,
                           int64_t default_value) const {
  auto it = flags_.find(name);
  if (it == flags_.end() || it->second.empty()) return default_value;
  return std::atoll(it->second.c_str());
}

double FlagParser::GetDouble(const std::string& name,
                             double default_value) const {
  auto it = flags_.find(name);
  if (it == flags_.end() || it->second.empty()) return default_value;
  return std::atof(it->second.c_str());
}

bool FlagParser::GetBool(const std::string& name, bool default_value) const {
  auto it = flags_.find(name);
  if (it == flags_.end()) return default_value;
  const std::string& value = it->second;
  return value.empty() || value == "true" || value == "1" || value == "yes";
}

Status FlagParser::Validate(const std::vector<std::string>& known,
                            const std::vector<std::string>& counts,
                            const std::vector<std::string>& decimals) const {
  auto listed = [](const std::vector<std::string>& names,
                   const std::string& name) {
    return std::find(names.begin(), names.end(), name) != names.end();
  };
  for (const auto& [name, value] : flags_) {
    if (listed(counts, name)) {
      // GetInt is atoll: "-1" would wrap to a huge size_t and "abc" read
      // as 0, so the value must be digits only and fit an int64_t.
      int64_t parsed = 0;
      const char* end = value.data() + value.size();
      auto [stop, error] = std::from_chars(value.data(), end, parsed);
      if (error != std::errc() || stop != end || value[0] == '-') {
        return Status::InvalidArgument("--" + name +
                                       " must be a whole non-negative "
                                       "number, got '" + value + "'");
      }
    } else if (listed(decimals, name)) {
      // GetDouble is atof: "abc" would read as 0, and "-1", "inf" or
      // "nan" would reach a size or deadline computation unchecked.
      double parsed = 0.0;
      const char* end = value.data() + value.size();
      auto [stop, error] = std::from_chars(value.data(), end, parsed);
      if (error != std::errc() || stop != end || !std::isfinite(parsed) ||
          parsed < 0.0) {
        return Status::InvalidArgument("--" + name +
                                       " must be a finite non-negative "
                                       "number, got '" + value + "'");
      }
    } else if (!listed(known, name)) {
      return Status::InvalidArgument("unknown flag: --" + name);
    }
  }
  return Status::OK();
}

}  // namespace gks
