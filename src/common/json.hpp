// Minimal JSON document model: parse, navigate, and write.
//
// Built for the runner's matrix specs and the on-disk result cache, which
// need exact integer round trips (cycle counters are uint64). Numbers are
// therefore kept as their source token and converted on access — writing a
// uint64 and parsing it back is lossless, with no double-precision detour.
// write_json_string is the one string escaper every JSON writer calls.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace prosim {

class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  JsonValue() = default;
  static JsonValue make_null() { return JsonValue(); }
  static JsonValue make_bool(bool b);
  static JsonValue make_number(std::string token);
  static JsonValue make_string(std::string s);
  static JsonValue make_array();
  static JsonValue make_object();

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_object() const { return kind_ == Kind::kObject; }

  bool as_bool() const;
  /// Number accessors parse the stored token; they throw SimException on
  /// kind mismatch, so check is_number() on untrusted paths first.
  std::uint64_t as_u64() const;
  std::int64_t as_i64() const;
  double as_double() const;
  const std::string& as_string() const;
  /// Raw source token of a number (write_json emits it verbatim).
  const std::string& number_token() const;

  const std::vector<JsonValue>& items() const;
  const std::vector<std::pair<std::string, JsonValue>>& members() const;

  /// Object lookup; nullptr when absent or not an object.
  const JsonValue* find(std::string_view key) const;
  /// Object lookup that throws SimException when the key is missing (all
  /// accessor kind mismatches throw too — JSON is external input).
  const JsonValue& at(std::string_view key) const;

  // Mutation (used by programmatic builders).
  void push_back(JsonValue v);
  void set(std::string key, JsonValue v);

 private:
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  std::string scalar_;  // number token or string payload
  std::vector<JsonValue> items_;
  std::vector<std::pair<std::string, JsonValue>> members_;
};

struct JsonParseError {
  std::size_t line = 0;  // 1-based
  std::string message;
};

/// Parses one JSON document (trailing whitespace allowed, nothing else).
/// Returns the error instead of throwing: spec files are user input.
struct JsonParseResult {
  std::optional<JsonValue> value;
  std::optional<JsonParseError> error;
  bool ok() const { return value.has_value(); }
};
JsonParseResult parse_json(std::string_view text);

/// Writes `s` as a JSON string literal (quotes + escapes).
void write_json_string(std::ostream& os, std::string_view s);

/// Writes any JsonValue back out in canonical form (no whitespace, members
/// in stored order). Number tokens are emitted verbatim, so a parse →
/// write round trip is lossless for 64-bit integers; string escapes are
/// normalized to write_json_string's form. Used to carry *unknown* JSON
/// blocks through readers that don't understand them (see result_io).
void write_json(std::ostream& os, const JsonValue& v);
std::string json_to_string(const JsonValue& v);

}  // namespace prosim
