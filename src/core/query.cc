#include "core/query.h"

#include <cctype>

#include "text/analyzer.h"

namespace gks {
namespace {

Status MakeAtom(std::string_view raw, std::vector<QueryAtom>* atoms,
                std::string_view tag_constraint = {}) {
  std::vector<std::string> terms = text::Analyze(raw);
  if (terms.empty()) return Status::OK();  // all stop words: drop silently
  QueryAtom atom;
  atom.raw.assign(raw);
  atom.terms = std::move(terms);
  if (!tag_constraint.empty()) {
    // Tag constraints go through the tag pipeline (no stop-word removal,
    // same stemming) so `years:2001` still matches <year>.
    text::AnalyzerOptions tag_options;
    tag_options.remove_stopwords = false;
    atom.tag_constraint = text::AnalyzeTerm(tag_constraint, tag_options);
    if (atom.tag_constraint.empty()) {
      return Status::InvalidArgument("empty tag constraint in query");
    }
    atom.raw = std::string(tag_constraint) + ":" + atom.raw;
  }
  atoms->push_back(std::move(atom));
  return Status::OK();
}

// Splits a leading `tag:` prefix off an unquoted token. A trailing colon
// (`tag:"phrase"` — the quote ended the token scan) leaves the remainder
// empty; the caller then attaches the following phrase.
std::string_view SplitTagConstraint(std::string_view* token) {
  size_t colon = token->find(':');
  if (colon == std::string_view::npos || colon == 0) return {};
  std::string_view tag = token->substr(0, colon);
  token->remove_prefix(colon + 1);
  return tag;
}

}  // namespace

Result<Query> Query::Parse(std::string_view text) {
  std::vector<QueryAtom> atoms;
  size_t i = 0;
  while (i < text.size()) {
    char c = text[i];
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    if (c == '"') {
      size_t close = text.find('"', i + 1);
      if (close == std::string_view::npos) {
        return Status::InvalidArgument("unterminated quote in query");
      }
      GKS_RETURN_IF_ERROR(MakeAtom(text.substr(i + 1, close - i - 1), &atoms));
      i = close + 1;
      continue;
    }
    size_t end = i;
    while (end < text.size() &&
           !std::isspace(static_cast<unsigned char>(text[end])) &&
           text[end] != '"') {
      ++end;
    }
    std::string_view token = text.substr(i, end - i);
    std::string_view tag = SplitTagConstraint(&token);
    if (!tag.empty() && end < text.size() && text[end] == '"' &&
        token.empty()) {
      // `tag:"multi word"` — the quoted body follows immediately.
      size_t close = text.find('"', end + 1);
      if (close == std::string_view::npos) {
        return Status::InvalidArgument("unterminated quote in query");
      }
      GKS_RETURN_IF_ERROR(
          MakeAtom(text.substr(end + 1, close - end - 1), &atoms, tag));
      i = close + 1;
      continue;
    }
    GKS_RETURN_IF_ERROR(MakeAtom(token, &atoms, tag));
    i = end;
  }
  if (atoms.empty()) {
    return Status::InvalidArgument("query has no searchable keyword");
  }
  if (atoms.size() > 64) {
    return Status::InvalidArgument("query exceeds 64 keywords");
  }
  Query query;
  query.atoms_ = std::move(atoms);
  return query;
}

Result<Query> Query::FromKeywords(const std::vector<std::string>& keywords) {
  std::vector<QueryAtom> atoms;
  for (const std::string& keyword : keywords) {
    GKS_RETURN_IF_ERROR(MakeAtom(keyword, &atoms));
  }
  if (atoms.empty()) {
    return Status::InvalidArgument("query has no searchable keyword");
  }
  if (atoms.size() > 64) {
    return Status::InvalidArgument("query exceeds 64 keywords");
  }
  Query query;
  query.atoms_ = std::move(atoms);
  return query;
}

std::string Query::ToString() const {
  std::string out;
  for (const QueryAtom& atom : atoms_) {
    if (!out.empty()) out.push_back(' ');
    if (atom.raw.find(' ') != std::string::npos) {
      out.push_back('"');
      out += atom.raw;
      out.push_back('"');
    } else {
      out += atom.raw;
    }
  }
  return out;
}

}  // namespace gks
