#include "src/util/json.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "src/util/check.h"

namespace harmony {

void JsonObject::Set(std::string key, JsonValue value) {
  auto it = index_.find(key);
  if (it != index_.end()) {
    members_[it->second].second = std::move(value);
    return;
  }
  index_.emplace(key, members_.size());
  members_.emplace_back(std::move(key), std::move(value));
}

const JsonValue* JsonObject::Find(std::string_view key) const {
  auto it = index_.find(key);
  return it == index_.end() ? nullptr : &members_[it->second].second;
}

JsonValue JsonValue::Bool(bool b) {
  JsonValue v;
  v.kind_ = Kind::kBool;
  v.bool_ = b;
  return v;
}

JsonValue JsonValue::Number(double n) {
  JsonValue v;
  v.kind_ = Kind::kNumber;
  v.number_ = n;
  return v;
}

JsonValue JsonValue::String(std::string s) {
  JsonValue v;
  v.kind_ = Kind::kString;
  v.string_ = std::move(s);
  return v;
}

JsonValue JsonValue::Array(std::vector<JsonValue> items) {
  JsonValue v;
  v.kind_ = Kind::kArray;
  v.array_ = std::move(items);
  return v;
}

JsonValue JsonValue::Object(JsonObject object) {
  JsonValue v;
  v.kind_ = Kind::kObject;
  v.object_ = std::make_shared<const JsonObject>(std::move(object));
  return v;
}

bool JsonValue::as_bool() const {
  HCHECK(is_bool()) << "json: as_bool on non-bool";
  return bool_;
}

double JsonValue::as_number() const {
  HCHECK(is_number()) << "json: as_number on non-number";
  return number_;
}

const std::string& JsonValue::as_string() const {
  HCHECK(is_string()) << "json: as_string on non-string";
  return string_;
}

const std::vector<JsonValue>& JsonValue::as_array() const {
  HCHECK(is_array()) << "json: as_array on non-array";
  return array_;
}

const JsonObject& JsonValue::as_object() const {
  HCHECK(is_object()) << "json: as_object on non-object";
  HCHECK(object_ != nullptr);
  return *object_;
}

const JsonValue* JsonValue::Find(std::string_view key) const {
  return is_object() ? as_object().Find(key) : nullptr;
}

const JsonValue* JsonValue::At(std::size_t index) const {
  if (!is_array() || index >= array_.size()) {
    return nullptr;
  }
  return &array_[index];
}

namespace {

constexpr int kMaxDepth = 64;

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  StatusOr<JsonValue> Parse() {
    SkipWhitespace();
    JsonValue value;
    HARMONY_RETURN_IF_ERROR(ParseValue(0, &value));
    SkipWhitespace();
    if (pos_ != text_.size()) {
      return Error("trailing characters after document");
    }
    return value;
  }

 private:
  Status Error(const std::string& what) const {
    std::ostringstream oss;
    oss << "json: offset " << pos_ << ": " << what;
    return InvalidArgumentError(oss.str());
  }

  bool AtEnd() const { return pos_ >= text_.size(); }
  char Peek() const { return text_[pos_]; }

  void SkipWhitespace() {
    while (!AtEnd()) {
      const char c = Peek();
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') {
        break;
      }
      ++pos_;
    }
  }

  bool Consume(char expected) {
    if (AtEnd() || Peek() != expected) {
      return false;
    }
    ++pos_;
    return true;
  }

  bool ConsumeLiteral(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) != literal) {
      return false;
    }
    pos_ += literal.size();
    return true;
  }

  Status ParseValue(int depth, JsonValue* out) {
    if (depth > kMaxDepth) {
      return Error("nesting deeper than 64 levels");
    }
    if (AtEnd()) {
      return Error("unexpected end of input");
    }
    switch (Peek()) {
      case '{':
        return ParseObject(depth, out);
      case '[':
        return ParseArray(depth, out);
      case '"': {
        std::string s;
        HARMONY_RETURN_IF_ERROR(ParseString(&s));
        *out = JsonValue::String(std::move(s));
        return Status::Ok();
      }
      case 't':
        if (!ConsumeLiteral("true")) {
          return Error("expected 'true'");
        }
        *out = JsonValue::Bool(true);
        return Status::Ok();
      case 'f':
        if (!ConsumeLiteral("false")) {
          return Error("expected 'false'");
        }
        *out = JsonValue::Bool(false);
        return Status::Ok();
      case 'n':
        if (!ConsumeLiteral("null")) {
          return Error("expected 'null'");
        }
        *out = JsonValue::Null();
        return Status::Ok();
      default:
        return ParseNumber(out);
    }
  }

  Status ParseObject(int depth, JsonValue* out) {
    HCHECK(Consume('{'));
    JsonObject object;
    SkipWhitespace();
    if (Consume('}')) {
      *out = JsonValue::Object(std::move(object));
      return Status::Ok();
    }
    while (true) {
      SkipWhitespace();
      if (AtEnd() || Peek() != '"') {
        return Error("expected object key string");
      }
      std::string key;
      HARMONY_RETURN_IF_ERROR(ParseString(&key));
      SkipWhitespace();
      if (!Consume(':')) {
        return Error("expected ':' after object key");
      }
      SkipWhitespace();
      JsonValue value;
      HARMONY_RETURN_IF_ERROR(ParseValue(depth + 1, &value));
      object.Set(std::move(key), std::move(value));
      SkipWhitespace();
      if (Consume(',')) {
        continue;
      }
      if (Consume('}')) {
        break;
      }
      return Error("expected ',' or '}' in object");
    }
    *out = JsonValue::Object(std::move(object));
    return Status::Ok();
  }

  Status ParseArray(int depth, JsonValue* out) {
    HCHECK(Consume('['));
    std::vector<JsonValue> items;
    SkipWhitespace();
    if (Consume(']')) {
      *out = JsonValue::Array(std::move(items));
      return Status::Ok();
    }
    while (true) {
      SkipWhitespace();
      JsonValue value;
      HARMONY_RETURN_IF_ERROR(ParseValue(depth + 1, &value));
      items.push_back(std::move(value));
      SkipWhitespace();
      if (Consume(',')) {
        continue;
      }
      if (Consume(']')) {
        break;
      }
      return Error("expected ',' or ']' in array");
    }
    *out = JsonValue::Array(std::move(items));
    return Status::Ok();
  }

  Status ParseString(std::string* out) {
    HCHECK(Consume('"'));
    std::string result;
    while (true) {
      if (AtEnd()) {
        return Error("unterminated string");
      }
      const char c = text_[pos_++];
      if (c == '"') {
        break;
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        return Error("unescaped control character in string");
      }
      if (c != '\\') {
        result.push_back(c);
        continue;
      }
      if (AtEnd()) {
        return Error("unterminated escape");
      }
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': result.push_back('"'); break;
        case '\\': result.push_back('\\'); break;
        case '/': result.push_back('/'); break;
        case 'b': result.push_back('\b'); break;
        case 'f': result.push_back('\f'); break;
        case 'n': result.push_back('\n'); break;
        case 'r': result.push_back('\r'); break;
        case 't': result.push_back('\t'); break;
        case 'u': {
          unsigned code = 0;
          HARMONY_RETURN_IF_ERROR(ParseHex4(&code));
          if (code >= 0xDC00 && code <= 0xDFFF) {
            return Error("lone low surrogate \\u escape (no preceding high surrogate)");
          }
          if (code >= 0xD800 && code <= 0xDBFF) {
            // UTF-16 surrogate pair: the high surrogate must be immediately followed by an
            // escaped low surrogate; together they select one supplementary-plane code
            // point (e.g. 😀 -> U+1F600), emitted as 4-byte UTF-8.
            if (pos_ + 1 >= text_.size() || text_[pos_] != '\\' || text_[pos_ + 1] != 'u') {
              return Error("lone high surrogate \\u escape (expected \\u low surrogate)");
            }
            pos_ += 2;
            unsigned low = 0;
            HARMONY_RETURN_IF_ERROR(ParseHex4(&low));
            if (low < 0xDC00 || low > 0xDFFF) {
              return Error("invalid surrogate pair: second \\u escape is not a low surrogate");
            }
            code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
          }
          AppendUtf8(code, &result);
          break;
        }
        default:
          return Error("invalid escape character");
      }
    }
    *out = std::move(result);
    return Status::Ok();
  }

  Status ParseHex4(unsigned* out) {
    unsigned code = 0;
    for (int i = 0; i < 4; ++i) {
      if (AtEnd()) {
        return Error("truncated \\u escape");
      }
      const char c = text_[pos_++];
      code <<= 4;
      if (c >= '0' && c <= '9') {
        code |= static_cast<unsigned>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        code |= static_cast<unsigned>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        code |= static_cast<unsigned>(c - 'A' + 10);
      } else {
        return Error("invalid hex digit in \\u escape");
      }
    }
    *out = code;
    return Status::Ok();
  }

  // Encodes any scalar code point up to U+10FFFF (ParseString combines surrogate pairs
  // before calling this, so supplementary-plane characters take the 4-byte branch).
  static void AppendUtf8(unsigned code, std::string* out) {
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

  Status ParseNumber(JsonValue* out) {
    const std::size_t start = pos_;
    if (!AtEnd() && Peek() == '-') {
      ++pos_;
    }
    if (AtEnd() || Peek() < '0' || Peek() > '9') {
      return Error("invalid number");
    }
    while (!AtEnd() && Peek() >= '0' && Peek() <= '9') {
      ++pos_;
    }
    if (!AtEnd() && Peek() == '.') {
      ++pos_;
      if (AtEnd() || Peek() < '0' || Peek() > '9') {
        return Error("digit required after decimal point");
      }
      while (!AtEnd() && Peek() >= '0' && Peek() <= '9') {
        ++pos_;
      }
    }
    if (!AtEnd() && (Peek() == 'e' || Peek() == 'E')) {
      ++pos_;
      if (!AtEnd() && (Peek() == '+' || Peek() == '-')) {
        ++pos_;
      }
      if (AtEnd() || Peek() < '0' || Peek() > '9') {
        return Error("digit required in exponent");
      }
      while (!AtEnd() && Peek() >= '0' && Peek() <= '9') {
        ++pos_;
      }
    }
    const std::string token(text_.substr(start, pos_ - start));
    const double value = std::strtod(token.c_str(), nullptr);
    if (!std::isfinite(value)) {
      return Error("number out of double range");
    }
    *out = JsonValue::Number(value);
    return Status::Ok();
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

StatusOr<JsonValue> ParseJson(std::string_view text) {
  return Parser(text).Parse();
}

std::string JsonString(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  out.push_back('"');
  std::size_t run = 0;  // start of the bytes not yet copied to `out`
  for (std::size_t i = 0; i < s.size(); ++i) {
    const auto c = static_cast<unsigned char>(s[i]);
    if (c >= 0x20 && c != '"' && c != '\\') {
      continue;
    }
    out.append(s, run, i - run);
    run = i + 1;
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default: {
        char buffer[8];
        std::snprintf(buffer, sizeof(buffer), "\\u%04x", static_cast<unsigned>(c));
        out += buffer;
      }
    }
  }
  out.append(s, run);
  out.push_back('"');
  return out;
}

std::string JsonNumber(double value) {
  // to_chars with a precision prints exactly what printf's "%.*g" prints, and from_chars
  // reads back exactly what strtod reads, without printf's format parsing and locale cost.
  char buffer[64];
  char* end = buffer;
  for (int precision = 15; precision <= 17; ++precision) {
    end = std::to_chars(buffer, buffer + sizeof(buffer), value, std::chars_format::general,
                        precision)
              .ptr;
    double back = 0.0;
    std::from_chars(buffer, end, back);
    if (back == value) {
      break;
    }
  }
  return std::string(buffer, end);
}

}  // namespace harmony
