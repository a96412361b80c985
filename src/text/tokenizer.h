#ifndef GKS_TEXT_TOKENIZER_H_
#define GKS_TEXT_TOKENIZER_H_

#include <functional>
#include <string>
#include <string_view>
#include <vector>

namespace gks::text {

/// Splits raw text into lower-cased word tokens. A token is a maximal run
/// of alphanumeric characters; apostrophes inside a word are dropped
/// ("Chair's" -> "chairs") and everything else is a separator. Pure
/// number runs are kept (years such as "2001" are first-class keywords in
/// the paper's DI examples).
std::vector<std::string> Tokenize(std::string_view input);

/// Calls `fn(token)` for each token of `input` in order, by Tokenize's
/// rules, without building a vector; `fn` may move from `token`.
void ForEachToken(std::string_view input,
                  const std::function<void(std::string& token)>& fn);

}  // namespace gks::text

#endif  // GKS_TEXT_TOKENIZER_H_
