#ifndef GKS_XML_SAX_PARSER_H_
#define GKS_XML_SAX_PARSER_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/file_io.h"
#include "common/status.h"
#include "xml/lexer.h"

namespace gks::xml {

/// Streaming event receiver. All callbacks default to success so handlers
/// override only what they need. Returning a non-OK status aborts the parse
/// and propagates the status to the caller.
class SaxHandler {
 public:
  virtual ~SaxHandler() = default;

  virtual Status StartDocument() { return Status::OK(); }
  virtual Status EndDocument() { return Status::OK(); }
  virtual Status StartElement(std::string_view name,
                              const std::vector<XmlAttribute>& attributes) {
    (void)name;
    (void)attributes;
    return Status::OK();
  }
  virtual Status EndElement(std::string_view name) {
    (void)name;
    return Status::OK();
  }
  /// Character data (entities already expanded; CDATA delivered verbatim).
  virtual Status Characters(std::string_view text) {
    (void)text;
    return Status::OK();
  }
};

struct SaxOptions {
  /// Drop text nodes that consist solely of whitespace (pretty-printing
  /// noise); defaults on because every GKS dataset is element-structured.
  bool skip_whitespace_text = true;
};

/// Parses an in-memory document, enforcing well-formedness: exactly one
/// root element, properly nested/matched tags, no content after the root.
Status ParseXml(std::string_view input, SaxHandler* handler,
                const SaxOptions& options = SaxOptions());

/// Reads `path` fully into memory and parses it.
Status ParseXmlFile(const std::string& path, SaxHandler* handler,
                    const SaxOptions& options = SaxOptions());

/// The corpus writers in perfbench/ call the atomic writer by this name.
using ::gks::WriteStringToFile;

}  // namespace gks::xml

#endif  // GKS_XML_SAX_PARSER_H_
