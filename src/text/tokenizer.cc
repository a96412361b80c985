#include "text/tokenizer.h"

#include <array>
#include <utility>

namespace gks::text {
namespace {

// Each byte's lower-cased form if it is alphanumeric, else 0: what
// std::isalnum and std::tolower answer in the "C" locale, which the
// program never changes. One table load per byte instead of two calls.
constexpr std::array<char, 256> kFoldedAlnum = [] {
  std::array<char, 256> table{};
  for (char c = '0'; c <= '9'; ++c) table[static_cast<unsigned char>(c)] = c;
  for (char c = 'a'; c <= 'z'; ++c) {
    table[static_cast<unsigned char>(c)] = c;
    table[static_cast<unsigned char>(c - 'a' + 'A')] = c;
  }
  return table;
}();

}  // namespace

void ForEachToken(std::string_view input,
                  const std::function<void(std::string& token)>& fn) {
  std::string current;
  for (const char c : input) {
    const char folded = kFoldedAlnum[static_cast<unsigned char>(c)];
    if (folded != 0) {
      current.push_back(folded);
    } else if (c == '\'' && !current.empty()) {
      // Drop the apostrophe but keep the word running ("Chair's" -> chairs).
    } else if (!current.empty()) {
      fn(current);
      current.clear();
    }
  }
  if (!current.empty()) fn(current);
}

std::vector<std::string> Tokenize(std::string_view input) {
  std::vector<std::string> tokens;
  ForEachToken(input,
               [&](std::string& token) { tokens.push_back(std::move(token)); });
  return tokens;
}

}  // namespace gks::text
