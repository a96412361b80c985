#include "common/json_value.h"

#include <charconv>
#include <cstdlib>

namespace gks {
namespace {

const std::string kEmptyString;
const std::vector<JsonValue> kEmptyArray;
const std::map<std::string, JsonValue, std::less<>> kEmptyObject;

bool IsDigit(char c) { return c >= '0' && c <= '9'; }

void AppendUtf8(uint32_t code, std::string* out) {
  if (code < 0x80) {
    out->push_back(static_cast<char>(code));
  } else if (code < 0x800) {
    out->push_back(static_cast<char>(0xC0 | (code >> 6)));
    out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
  } else if (code < 0x10000) {
    out->push_back(static_cast<char>(0xE0 | (code >> 12)));
    out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
    out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
  } else {
    out->push_back(static_cast<char>(0xF0 | (code >> 18)));
    out->push_back(static_cast<char>(0x80 | ((code >> 12) & 0x3F)));
    out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
    out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
  }
}

}  // namespace

const std::string& JsonValue::GetString() const {
  return is_string() ? string_ : kEmptyString;
}

const std::vector<JsonValue>& JsonValue::items() const {
  return array_ ? *array_ : kEmptyArray;
}

const std::map<std::string, JsonValue, std::less<>>& JsonValue::members()
    const {
  return object_ ? *object_ : kEmptyObject;
}

const JsonValue* JsonValue::Find(std::string_view key) const {
  if (!is_object() || !object_) return nullptr;
  auto it = object_->find(key);
  return it == object_->end() ? nullptr : &it->second;
}

JsonValue JsonValue::MakeBool(bool v) {
  JsonValue value;
  value.kind_ = Kind::kBool;
  value.bool_ = v;
  return value;
}

JsonValue JsonValue::MakeInt(int64_t v) {
  JsonValue value;
  value.kind_ = Kind::kInt;
  value.int_ = v;
  value.double_ = static_cast<double>(v);
  return value;
}

JsonValue JsonValue::MakeDouble(double v) {
  JsonValue value;
  value.kind_ = Kind::kDouble;
  value.double_ = v;
  return value;
}

JsonValue JsonValue::MakeString(std::string v) {
  JsonValue value;
  value.kind_ = Kind::kString;
  value.string_ = std::move(v);
  return value;
}

bool JsonReader::Fail(const char* what) {
  if (status_.ok()) {
    status_ = Status::InvalidArgument(std::string("json: ") + what +
                                      " at byte " + std::to_string(pos_));
  }
  return false;
}

void JsonReader::SkipWhitespace() {
  while (pos_ < text_.size() &&
         (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
          text_[pos_] == '\r')) {
    ++pos_;
  }
}

bool JsonReader::StartValue() {
  if (!ok()) return false;
  if (depth_ > max_depth_) return Fail("nesting too deep");
  SkipWhitespace();
  if (pos_ >= text_.size()) return Fail("unexpected end of input");
  return true;
}

JsonReader::Kind JsonReader::Peek() {
  if (!StartValue()) return Kind::kInvalid;
  switch (text_[pos_]) {
    case '{':
      return Kind::kObject;
    case '[':
      return Kind::kArray;
    case '"':
      return Kind::kString;
    case 't':
    case 'f':
      return Kind::kBool;
    case 'n':
      return Kind::kNull;
    default:
      if (text_[pos_] == '-' || IsDigit(text_[pos_])) return Kind::kNumber;
      Fail("invalid value");
      return Kind::kInvalid;
  }
}

bool JsonReader::BeginObject() {
  if (!StartValue()) return false;
  if (text_[pos_] != '{') return Fail("expected an object");
  ++pos_;
  ++depth_;
  first_ = true;
  return true;
}

bool JsonReader::BeginArray() {
  if (!StartValue()) return false;
  if (text_[pos_] != '[') return Fail("expected an array");
  ++pos_;
  ++depth_;
  first_ = true;
  return true;
}

bool JsonReader::NextElement(char close) {
  if (!ok()) return false;
  SkipWhitespace();
  if (pos_ < text_.size() && text_[pos_] == close) {
    ++pos_;
    --depth_;
    first_ = false;
    return false;
  }
  if (first_) {
    first_ = false;
    return true;
  }
  if (pos_ < text_.size() && text_[pos_] == ',') {
    ++pos_;
    return true;
  }
  return Fail(close == '}' ? "expected ',' or '}' in object"
                           : "expected ',' or ']' in array");
}

bool JsonReader::NextMember(std::string* key) {
  if (!NextElement('}')) return false;
  SkipWhitespace();
  if (pos_ >= text_.size() || text_[pos_] != '"') {
    return Fail("expected object key string");
  }
  if (!ParseString(key)) return false;
  SkipWhitespace();
  if (pos_ >= text_.size() || text_[pos_] != ':') {
    return Fail("expected ':' after object key");
  }
  ++pos_;
  return true;
}

bool JsonReader::NextItem() { return NextElement(']'); }

bool JsonReader::ReadString(std::string* out) {
  if (!StartValue()) return false;
  if (text_[pos_] != '"') return Fail("expected a string");
  return ParseString(out);
}

bool JsonReader::ParseString(std::string* out) {
  ++pos_;  // opening quote
  out->clear();
  while (true) {
    // Bytes that need no decoding are appended a run at a time.
    const size_t run = pos_;
    while (pos_ < text_.size()) {
      const unsigned char c = static_cast<unsigned char>(text_[pos_]);
      if (c == '"' || c == '\\' || c < 0x20) break;
      ++pos_;
    }
    out->append(text_.data() + run, pos_ - run);
    if (pos_ >= text_.size()) return Fail("unterminated string");
    const char c = text_[pos_++];
    if (c == '"') return true;
    if (c != '\\') {
      --pos_;
      return Fail("unescaped control character in string");
    }
    if (pos_ >= text_.size()) return Fail("unterminated escape");
    const char e = text_[pos_++];
    switch (e) {
      case '"': out->push_back('"'); break;
      case '\\': out->push_back('\\'); break;
      case '/': out->push_back('/'); break;
      case 'b': out->push_back('\b'); break;
      case 'f': out->push_back('\f'); break;
      case 'n': out->push_back('\n'); break;
      case 'r': out->push_back('\r'); break;
      case 't': out->push_back('\t'); break;
      case 'u': {
        uint32_t code = 0;
        if (!ReadHex4(&code)) return false;
        // Surrogate pair: combine \uD8xx\uDCxx into one code point.
        // Lone surrogates are malformed — they have no UTF-8 form.
        if (code >= 0xD800 && code <= 0xDBFF) {
          if (text_.substr(pos_, 2) != "\\u") {
            return Fail("lone high surrogate in \\u escape");
          }
          pos_ += 2;
          uint32_t low = 0;
          if (!ReadHex4(&low)) return false;
          if (low < 0xDC00 || low > 0xDFFF) {
            return Fail("invalid low surrogate in \\u escape");
          }
          code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
        } else if (code >= 0xDC00 && code <= 0xDFFF) {
          return Fail("lone low surrogate in \\u escape");
        }
        AppendUtf8(code, out);
        break;
      }
      default:
        --pos_;
        return Fail("invalid escape character");
    }
  }
}

bool JsonReader::ReadHex4(uint32_t* out) {
  if (pos_ + 4 > text_.size()) return Fail("truncated \\u escape");
  uint32_t value = 0;
  for (int i = 0; i < 4; ++i) {
    const char c = text_[pos_++];
    value <<= 4;
    if (c >= '0' && c <= '9') value |= static_cast<uint32_t>(c - '0');
    else if (c >= 'a' && c <= 'f') value |= static_cast<uint32_t>(c - 'a' + 10);
    else if (c >= 'A' && c <= 'F') value |= static_cast<uint32_t>(c - 'A' + 10);
    else {
      --pos_;
      return Fail("invalid hex digit in \\u escape");
    }
  }
  *out = value;
  return true;
}

bool JsonReader::ReadLiteral(std::string_view literal) {
  if (text_.substr(pos_, literal.size()) != literal) {
    return Fail("invalid literal");
  }
  pos_ += literal.size();
  return true;
}

bool JsonReader::ReadBool(bool* out) {
  if (!StartValue()) return false;
  const bool value = text_[pos_] == 't';
  if (!value && text_[pos_] != 'f') return Fail("expected a boolean");
  if (!ReadLiteral(value ? "true" : "false")) return false;
  *out = value;
  return true;
}

bool JsonReader::ReadNull() {
  if (!StartValue()) return false;
  if (text_[pos_] != 'n') return Fail("expected null");
  return ReadLiteral("null");
}

bool JsonReader::ScanNumber(std::string_view* token, bool* integral) {
  if (!StartValue()) return false;
  const size_t start = pos_;
  if (text_[pos_] == '-') ++pos_;
  if (pos_ >= text_.size() || !IsDigit(text_[pos_])) {
    pos_ = start;
    return Fail("invalid value");
  }
  // JSON forbids leading zeros: 0, 0.5 and 0e1 are fine, 01 is not.
  if (text_[pos_] == '0' && pos_ + 1 < text_.size() &&
      IsDigit(text_[pos_ + 1])) {
    return Fail("leading zero in number");
  }
  while (pos_ < text_.size() && IsDigit(text_[pos_])) ++pos_;
  *integral = true;
  if (pos_ < text_.size() && text_[pos_] == '.') {
    *integral = false;
    ++pos_;
    if (pos_ >= text_.size() || !IsDigit(text_[pos_])) {
      return Fail("digit expected after decimal point");
    }
    while (pos_ < text_.size() && IsDigit(text_[pos_])) ++pos_;
  }
  if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
    *integral = false;
    ++pos_;
    if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ >= text_.size() || !IsDigit(text_[pos_])) {
      return Fail("digit expected in exponent");
    }
    while (pos_ < text_.size() && IsDigit(text_[pos_])) ++pos_;
  }
  *token = text_.substr(start, pos_ - start);
  return true;
}

bool JsonReader::ReadNumber(Number* out) {
  std::string_view token;
  bool integral = false;
  if (!ScanNumber(&token, &integral)) return false;
  if (integral) {
    int64_t value = 0;
    const char* end = token.data() + token.size();
    auto [ptr, ec] = std::from_chars(token.data(), end, value);
    if (ec == std::errc() && ptr == end) {
      *out = Number{true, value, static_cast<double>(value)};
      return true;
    }
    // Out of int64 range: fall through to double.
  }
  *out = Number{false, 0, std::strtod(std::string(token).c_str(), nullptr)};
  return true;
}

bool JsonReader::Skip() {
  switch (Peek()) {
    case Kind::kObject:
      BeginObject();
      while (NextMember(&scratch_)) Skip();
      return ok();
    case Kind::kArray:
      BeginArray();
      while (NextItem()) Skip();
      return ok();
    case Kind::kString:
      return ReadString(&scratch_);
    case Kind::kNumber: {
      std::string_view token;
      bool integral = false;
      return ScanNumber(&token, &integral);
    }
    case Kind::kBool: {
      bool value = false;
      return ReadBool(&value);
    }
    case Kind::kNull:
      return ReadNull();
    case Kind::kInvalid:
      return false;
  }
  return false;
}

bool JsonReader::Finish() {
  if (!ok()) return false;
  SkipWhitespace();
  if (pos_ != text_.size()) return Fail("trailing characters after JSON value");
  return true;
}

bool JsonValue::Read(JsonReader* reader, JsonValue* out) {
  switch (reader->Peek()) {
    case JsonReader::Kind::kNull:
      return reader->ReadNull();
    case JsonReader::Kind::kBool: {
      bool value = false;
      if (!reader->ReadBool(&value)) return false;
      *out = MakeBool(value);
      return true;
    }
    case JsonReader::Kind::kNumber: {
      JsonReader::Number number;
      if (!reader->ReadNumber(&number)) return false;
      *out = number.is_int ? MakeInt(number.int_value)
                           : MakeDouble(number.double_value);
      return true;
    }
    case JsonReader::Kind::kString:
      out->kind_ = Kind::kString;
      return reader->ReadString(&out->string_);
    case JsonReader::Kind::kArray:
      out->kind_ = Kind::kArray;
      out->array_ = std::make_shared<std::vector<JsonValue>>();
      reader->BeginArray();
      while (reader->NextItem()) {
        if (!Read(reader, &out->array_->emplace_back())) return false;
      }
      return reader->ok();
    case JsonReader::Kind::kObject: {
      out->kind_ = Kind::kObject;
      out->object_ =
          std::make_shared<std::map<std::string, JsonValue, std::less<>>>();
      reader->BeginObject();
      std::string key;
      while (reader->NextMember(&key)) {
        JsonValue value;
        if (!Read(reader, &value)) return false;
        (*out->object_)[std::move(key)] = std::move(value);  // last one wins
      }
      return reader->ok();
    }
    case JsonReader::Kind::kInvalid:
      return false;
  }
  return false;
}

Result<JsonValue> JsonValue::Parse(std::string_view text, size_t max_depth) {
  JsonReader reader(text, max_depth);
  JsonValue value;
  if (!Read(&reader, &value) || !reader.Finish()) return reader.status();
  return value;
}

}  // namespace gks
