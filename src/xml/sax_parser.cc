#include "xml/sax_parser.h"

#include <cctype>

namespace gks::xml {
namespace {

bool IsAllWhitespace(std::string_view text) {
  for (char c : text) {
    if (!std::isspace(static_cast<unsigned char>(c))) return false;
  }
  return true;
}

}  // namespace

Status ParseXml(std::string_view input, SaxHandler* handler,
                const SaxOptions& options) {
  XmlLexer lexer(input);
  std::vector<std::string> open_elements;
  bool seen_root = false;

  GKS_RETURN_IF_ERROR(handler->StartDocument());
  XmlToken token;
  while (true) {
    GKS_RETURN_IF_ERROR(lexer.Next(&token));
    switch (token.kind) {
      case XmlToken::Kind::kEof:
        if (!open_elements.empty()) {
          return Status::Corruption("unexpected end of document: <" +
                                    open_elements.back() + "> not closed");
        }
        if (!seen_root) {
          return Status::Corruption("document has no root element");
        }
        return handler->EndDocument();

      case XmlToken::Kind::kStartTag:
        if (open_elements.empty() && seen_root) {
          return Status::Corruption("multiple root elements (line " +
                                    std::to_string(token.line) + ")");
        }
        seen_root = true;
        GKS_RETURN_IF_ERROR(
            handler->StartElement(token.name, token.attributes));
        if (token.self_closing) {
          GKS_RETURN_IF_ERROR(handler->EndElement(token.name));
        } else {
          open_elements.push_back(token.name);
        }
        break;

      case XmlToken::Kind::kEndTag:
        if (open_elements.empty()) {
          return Status::Corruption("unmatched </" + token.name + "> at line " +
                                    std::to_string(token.line));
        }
        if (open_elements.back() != token.name) {
          return Status::Corruption("mismatched tag: expected </" +
                                    open_elements.back() + ">, found </" +
                                    token.name + "> at line " +
                                    std::to_string(token.line));
        }
        open_elements.pop_back();
        GKS_RETURN_IF_ERROR(handler->EndElement(token.name));
        break;

      case XmlToken::Kind::kText:
        if (open_elements.empty()) {
          if (IsAllWhitespace(token.text)) break;
          return Status::Corruption("text outside the root element at line " +
                                    std::to_string(token.line));
        }
        if (options.skip_whitespace_text && IsAllWhitespace(token.text)) {
          break;
        }
        GKS_RETURN_IF_ERROR(handler->Characters(token.text));
        break;

      case XmlToken::Kind::kCData:
        if (open_elements.empty()) {
          return Status::Corruption("CDATA outside the root element");
        }
        GKS_RETURN_IF_ERROR(handler->Characters(token.text));
        break;

      case XmlToken::Kind::kComment:
      case XmlToken::Kind::kProcessing:
      case XmlToken::Kind::kDoctype:
        break;  // structural noise: ignored
    }
  }
}

Status ParseXmlFile(const std::string& path, SaxHandler* handler,
                    const SaxOptions& options) {
  std::string contents;
  GKS_RETURN_IF_ERROR(ReadFileToString(path, &contents));
  return ParseXml(contents, handler, options);
}

}  // namespace gks::xml
