#ifndef GKS_COMMON_JSON_VALUE_H_
#define GKS_COMMON_JSON_VALUE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"

namespace gks {

/// A pull parser over one JSON text: the caller asks for the next value
/// by kind and walks objects and arrays member by member, so a decoder
/// can read a document straight into its own types without building a
/// JsonValue tree. It is the one tokenizer: JsonValue::Parse is built on
/// it, so both accept exactly the same texts (escapes, surrogate pairs,
/// number grammar, leading zeros, the depth limit).
///
/// Errors are sticky. The first one (InvalidArgument, "json: <what> at
/// byte <offset>") is kept in status(), and every later call fails
/// without reading. A loop such as
///
///   reader.BeginObject();
///   while (reader.NextMember(&key)) { ...read exactly one value... }
///
/// therefore ends on the closing brace *or* on an error: check ok()
/// after it.
class JsonReader {
 public:
  /// The kind of a value, judged by its first byte. kInvalid means there
  /// is no value to read: the input ended, or an error is recorded.
  enum class Kind {
    kNull, kBool, kNumber, kString, kArray, kObject, kInvalid
  };

  /// A number token. `is_int` for a token without fraction or exponent
  /// that fits int64 (then `int_value` holds it); `double_value` always
  /// holds the value as a double.
  struct Number {
    bool is_int = false;
    int64_t int_value = 0;
    double double_value = 0.0;
  };

  /// `max_depth` bounds how many arrays/objects may enclose a value.
  explicit JsonReader(std::string_view text, size_t max_depth = 64)
      : text_(text), max_depth_(max_depth) {}

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  /// The kind of the next value. Reads nothing but whitespace; records
  /// an error (and returns kInvalid) when no value can start here.
  Kind Peek();

  /// Enters the object that is the next value.
  bool BeginObject();
  /// Reads the next member's key into `*key`, leaving the reader at its
  /// value, and returns true; consumes the closing brace and returns
  /// false at the end of the object (or on an error).
  bool NextMember(std::string* key);

  /// Enters the array that is the next value.
  bool BeginArray();
  /// Leaves the reader at the next item and returns true; consumes the
  /// closing bracket and returns false at the end (or on an error).
  bool NextItem();

  /// Scalar reads: each fails (recording an error) when the next value
  /// is of another kind. Peek() first to branch on the kind instead.
  bool ReadString(std::string* out);
  bool ReadBool(bool* out);
  bool ReadNull();
  bool ReadNumber(Number* out);

  /// Reads past the next value, validating it as fully as a read would.
  bool Skip();

  /// Succeeds when only whitespace follows: one text is one value.
  bool Finish();

 private:
  bool Fail(const char* what);
  void SkipWhitespace();
  /// Positions at the next value's first byte: checks the depth and the
  /// end of input.
  bool StartValue();
  /// Decodes the string whose opening quote is the next byte.
  bool ParseString(std::string* out);
  bool ReadLiteral(std::string_view literal);
  bool ReadHex4(uint32_t* out);
  /// Scans a number token; `*integral` when it has no fraction or
  /// exponent.
  bool ScanNumber(std::string_view* token, bool* integral);
  /// The step NextMember and NextItem share: true when an element
  /// follows, false after consuming `close` (or on an error).
  bool NextElement(char close);

  std::string_view text_;
  size_t max_depth_;
  size_t pos_ = 0;
  size_t depth_ = 0;  // open arrays and objects
  // True right after an open bracket: the next element takes no comma.
  // A closed container is an element of its parent, so closing clears
  // it, which is why one flag serves every nesting level.
  bool first_ = false;
  std::string scratch_;  // keys and strings that Skip() reads past
  Status status_;
};

/// A parsed JSON document — the read-side counterpart of JsonWriter.
/// Built for the server wire protocol (one request object per line) and
/// for test assertions over server/CLI JSON output, so it favours a small
/// immutable tree over speed tricks: parse once, navigate with typed
/// accessors, throw nothing. Decoders on a hot path read with
/// JsonReader instead.
///
/// Numbers keep both representations: every number parses as a double;
/// integral tokens that fit int64 additionally report is_int(), which is
/// what the protocol uses for ids, counts and epochs.
class JsonValue {
 public:
  enum class Kind { kNull, kBool, kInt, kDouble, kString, kArray, kObject };

  /// Parses exactly one JSON value (leading/trailing whitespace allowed;
  /// trailing garbage is an error). InvalidArgument on malformed input,
  /// with a byte offset in the message. `max_depth` bounds array/object
  /// nesting against attacker-shaped input.
  static Result<JsonValue> Parse(std::string_view text, size_t max_depth = 64);

  JsonValue() = default;  // null

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_int() const { return kind_ == Kind::kInt; }
  bool is_number() const {
    return kind_ == Kind::kInt || kind_ == Kind::kDouble;
  }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_object() const { return kind_ == Kind::kObject; }

  /// Typed reads with caller defaults — the lenient accessors the
  /// protocol uses for optional fields. Wrong-kind reads return the
  /// default rather than failing.
  bool GetBool(bool default_value = false) const {
    return is_bool() ? bool_ : default_value;
  }
  int64_t GetInt(int64_t default_value = 0) const {
    if (kind_ == Kind::kInt) return int_;
    if (kind_ == Kind::kDouble) return static_cast<int64_t>(double_);
    return default_value;
  }
  double GetDouble(double default_value = 0.0) const {
    if (kind_ == Kind::kDouble) return double_;
    if (kind_ == Kind::kInt) return static_cast<double>(int_);
    return default_value;
  }
  const std::string& GetString() const;  // empty string when not a string

  /// Array access; empty vector when not an array.
  const std::vector<JsonValue>& items() const;
  size_t size() const { return is_array() ? items().size() : 0; }

  /// Object member lookup: nullptr when absent or not an object. Members
  /// preserve no insertion order (sorted by key); of a key that appears
  /// twice, the last value wins.
  const JsonValue* Find(std::string_view key) const;
  bool Has(std::string_view key) const { return Find(key) != nullptr; }
  const std::map<std::string, JsonValue, std::less<>>& members() const;

  /// Construction helpers for tests.
  static JsonValue MakeBool(bool v);
  static JsonValue MakeInt(int64_t v);
  static JsonValue MakeDouble(double v);
  static JsonValue MakeString(std::string v);

 private:
  /// Reads the reader's next value into `out`, recursively.
  static bool Read(JsonReader* reader, JsonValue* out);

  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  int64_t int_ = 0;
  double double_ = 0.0;
  std::string string_;
  // Indirect so an empty JsonValue stays cheap to copy around.
  std::shared_ptr<std::vector<JsonValue>> array_;
  std::shared_ptr<std::map<std::string, JsonValue, std::less<>>> object_;
};

}  // namespace gks

#endif  // GKS_COMMON_JSON_VALUE_H_
