// Minimal JSON document model + parser for the observability layer (DESIGN.md §8), and the
// two leaf emitters every JSON writer shares.
//
// Each writer lays out its document by hand (fixed key order, so exports are byte-stable)
// and renders its strings and doubles with JsonString / JsonNumber below. The parser exists
// so tests can round-trip and schema-check that output without an external dependency. It
// supports the whole JSON grammar (objects, arrays, strings with escapes, numbers, booleans,
// null) but is tuned for trust-the-producer inputs: recursion depth is bounded and errors
// carry byte offsets.
#ifndef HARMONY_SRC_UTIL_JSON_H_
#define HARMONY_SRC_UTIL_JSON_H_

#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/util/status.h"

namespace harmony {

class JsonValue;

// Object members keep insertion order (the writers emit a deterministic order and the
// golden test wants to see it), with a map index for O(log n) lookup.
class JsonObject {
 public:
  void Set(std::string key, JsonValue value);
  const JsonValue* Find(std::string_view key) const;  // nullptr when absent

  const std::vector<std::pair<std::string, JsonValue>>& members() const { return members_; }
  std::size_t size() const { return members_.size(); }

 private:
  std::vector<std::pair<std::string, JsonValue>> members_;
  std::map<std::string, std::size_t, std::less<>> index_;
};

class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  JsonValue() : kind_(Kind::kNull) {}
  static JsonValue Null() { return JsonValue(); }
  static JsonValue Bool(bool b);
  static JsonValue Number(double n);
  static JsonValue String(std::string s);
  static JsonValue Array(std::vector<JsonValue> items);
  static JsonValue Object(JsonObject object);

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_object() const { return kind_ == Kind::kObject; }

  // Typed accessors HCHECK the kind; call the is_*() predicates first on untrusted input.
  bool as_bool() const;
  double as_number() const;
  const std::string& as_string() const;
  const std::vector<JsonValue>& as_array() const;
  const JsonObject& as_object() const;

  // Convenience lookups returning nullptr on kind mismatch or missing key/index.
  const JsonValue* Find(std::string_view key) const;
  const JsonValue* At(std::size_t index) const;

 private:
  Kind kind_;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> array_;
  std::shared_ptr<const JsonObject> object_;  // shared: JsonValue stays copyable
};

// Parses one JSON document (trailing whitespace allowed, trailing garbage is an error).
// Errors are INVALID_ARGUMENT with a byte offset, e.g. "json: offset 17: expected ':'".
StatusOr<JsonValue> ParseJson(std::string_view text);

// A quoted JSON string literal: '"' and '\\' are escaped, \n \r \t get their short escapes
// and every other control character becomes \u00XX; all other bytes pass through.
std::string JsonString(std::string_view s);

// The shortest of %.15g, %.16g and %.17g (printf notation) that reads back as the same
// double, so exports are deterministic and lose no bits.
std::string JsonNumber(double value);

}  // namespace harmony

#endif  // HARMONY_SRC_UTIL_JSON_H_
