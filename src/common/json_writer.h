#ifndef GKS_COMMON_JSON_WRITER_H_
#define GKS_COMMON_JSON_WRITER_H_

#include <charconv>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

namespace gks {

/// Minimal append-only JSON emitter (compact, no whitespace) for the
/// observability surfaces: metrics snapshots, span trees, --explain-json.
/// Comma placement is automatic; callers must alternate Key()/value calls
/// correctly inside objects (misuse is a programming error, not validated).
class JsonWriter {
 public:
  const std::string& str() const { return out_; }
  std::string Take() { return std::move(out_); }

  JsonWriter& BeginObject() {
    ValuePrefix();
    out_ += '{';
    first_.push_back(true);
    return *this;
  }
  JsonWriter& EndObject() {
    first_.pop_back();
    out_ += '}';
    return *this;
  }
  JsonWriter& BeginArray() {
    ValuePrefix();
    out_ += '[';
    first_.push_back(true);
    return *this;
  }
  JsonWriter& EndArray() {
    first_.pop_back();
    out_ += ']';
    return *this;
  }

  JsonWriter& Key(std::string_view key) {
    Comma();
    AppendEscaped(key);
    out_ += ':';
    after_key_ = true;
    return *this;
  }

  JsonWriter& String(std::string_view value) {
    ValuePrefix();
    AppendEscaped(value);
    return *this;
  }
  JsonWriter& UInt(uint64_t value) {
    ValuePrefix();
    AppendInteger(value);
    return *this;
  }
  JsonWriter& Int(int64_t value) {
    ValuePrefix();
    AppendInteger(value);
    return *this;
  }
  /// Fixed-precision double (default 3 decimals — millisecond timings).
  JsonWriter& Double(double value, int precision = 3) {
    ValuePrefix();
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.*f", precision, value);
    out_ += buf;
    return *this;
  }
  JsonWriter& Bool(bool value) {
    ValuePrefix();
    out_ += value ? "true" : "false";
    return *this;
  }
  /// Splices pre-rendered JSON in value position (e.g. a nested snapshot).
  JsonWriter& Raw(std::string_view json) {
    ValuePrefix();
    out_ += json;
    return *this;
  }

 private:
  void Comma() {
    if (!first_.empty()) {
      if (!first_.back()) out_ += ',';
      first_.back() = false;
    }
  }
  void ValuePrefix() {
    if (after_key_) {
      after_key_ = false;
      return;
    }
    Comma();
  }
  template <typename Integer>
  void AppendInteger(Integer value) {
    char buf[24];  // 20 digits of UINT64_MAX, or a sign and 19 digits
    out_.append(buf, std::to_chars(buf, buf + sizeof(buf), value).ptr);
  }
  /// Quotes `s`, escaping '"', '\\' and bytes below 0x20. Every other
  /// byte, UTF-8 included, passes through; each run of such bytes is
  /// appended in one call.
  void AppendEscaped(std::string_view s) {
    static constexpr char kHex[] = "0123456789abcdef";
    out_ += '"';
    size_t run = 0;  // first byte not yet appended
    for (size_t i = 0; i < s.size(); ++i) {
      const unsigned char c = static_cast<unsigned char>(s[i]);
      if (c >= 0x20 && c != '"' && c != '\\') continue;
      out_.append(s.data() + run, i - run);
      run = i + 1;
      switch (c) {
        case '"': out_ += "\\\""; break;
        case '\\': out_ += "\\\\"; break;
        case '\n': out_ += "\\n"; break;
        case '\r': out_ += "\\r"; break;
        case '\t': out_ += "\\t"; break;
        default: {
          const char escape[] = {'\\', 'u', '0', '0', kHex[c >> 4],
                                 kHex[c & 15]};
          out_.append(escape, sizeof(escape));
        }
      }
    }
    out_.append(s.data() + run, s.size() - run);
    out_ += '"';
  }

  std::string out_;
  std::vector<bool> first_;
  bool after_key_ = false;
};

}  // namespace gks

#endif  // GKS_COMMON_JSON_WRITER_H_
