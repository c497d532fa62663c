#include "src/util/spec_grammar.h"

#include <algorithm>
#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdlib>

namespace harmony {

std::optional<std::int64_t> ParseInteger(std::string_view text, std::int64_t lo,
                                         std::int64_t hi) {
  const std::string s(text);
  char* end = nullptr;
  errno = 0;
  const long long value = std::strtoll(s.c_str(), &end, 10);
  if (s.empty() || end != s.c_str() + s.size() || errno == ERANGE || value < lo ||
      value > hi) {
    return std::nullopt;
  }
  return static_cast<std::int64_t>(value);
}

std::optional<std::uint64_t> ParseUnsigned(std::string_view text) {
  const std::string s(text);
  // strtoull would wrap "-1" to 2^64 - 1; a sign is never part of an unsigned value.
  const std::size_t first = s.find_first_not_of(" \t\n\v\f\r");
  if (first == std::string::npos || s[first] == '-') {
    return std::nullopt;
  }
  char* end = nullptr;
  errno = 0;
  const unsigned long long value = std::strtoull(s.c_str(), &end, 10);
  if (end != s.c_str() + s.size() || errno == ERANGE) {
    return std::nullopt;
  }
  return static_cast<std::uint64_t>(value);
}

std::optional<double> ParseFinite(std::string_view text) {
  const std::string s(text);
  char* end = nullptr;
  const double value = std::strtod(s.c_str(), &end);
  if (s.empty() || end != s.c_str() + s.size() || !std::isfinite(value)) {
    return std::nullopt;
  }
  return value;
}

std::optional<bool> ParseBool(std::string_view text) {
  if (text == "true" || text == "1" || text == "yes" || text == "on") {
    return true;
  }
  if (text == "false" || text == "0" || text == "no" || text == "off") {
    return false;
  }
  return std::nullopt;
}

std::vector<SpecField> SplitSpec(std::string_view text, char sep, std::size_t base) {
  std::vector<SpecField> out;
  std::size_t start = 0;
  for (;;) {
    const std::size_t pos = text.find(sep, start);
    if (pos == std::string_view::npos) {
      out.push_back(SpecField{std::string(text.substr(start)), base + start});
      return out;
    }
    out.push_back(SpecField{std::string(text.substr(start, pos - start)), base + start});
    start = pos + 1;
  }
}

Status SpecGrammar::Error(std::size_t offset, const std::string& why) const {
  return InvalidArgumentError(prefix_ + ": " + why + " (at byte " + std::to_string(offset) +
                              "; see --help for the " + grammar_ + ")");
}

StatusOr<int> SpecGrammar::Int(const SpecField& field, const std::string& key, int lo,
                               int hi) const {
  const std::optional<std::int64_t> value = ParseInteger(field.text, lo, hi);
  if (!value) {
    return Error(field.offset, key + " must be an integer in [" + std::to_string(lo) + ", " +
                                   std::to_string(hi) + "], got '" + field.text + "'");
  }
  return static_cast<int>(*value);
}

StatusOr<std::uint64_t> SpecGrammar::Seed(const SpecField& field,
                                          const std::string& key) const {
  const std::optional<std::uint64_t> value = ParseUnsigned(field.text);
  if (!value) {
    return Error(field.offset,
                 key + " must be an unsigned integer, got '" + field.text + "'");
  }
  return *value;
}

StatusOr<double> SpecGrammar::Number(const SpecField& field, const std::string& key,
                                     const char* expected, bool (*ok)(double)) const {
  const std::optional<double> value = ParseFinite(field.text);
  if (!value || (ok != nullptr && !ok(*value))) {
    return Error(field.offset, key + " must be " + expected + ", got '" + field.text + "'");
  }
  return *value;
}

StatusOr<bool> SpecGrammar::Bool(const SpecField& field, const std::string& key) const {
  const std::optional<bool> value = ParseBool(field.text);
  if (!value) {
    return Error(field.offset, key + " must be 0, 1, true or false (or yes/no, on/off), got '" +
                                   field.text + "'");
  }
  return *value;
}

StatusOr<int> SpecGrammar::Target(const SpecField& field, std::string_view prefix) const {
  const std::string_view text = field.text;
  std::optional<std::int64_t> index;
  if (text.substr(0, prefix.size()) == prefix) {
    index = ParseInteger(text.substr(prefix.size()), 0, INT_MAX);
  }
  if (!index) {
    return Error(field.offset, "expected a target like '" + std::string(prefix) +
                                   "0', got '" + field.text + "'");
  }
  return static_cast<int>(*index);
}

namespace {

template <typename T>
Status Store(const StatusOr<T>& parsed, T* out) {
  if (parsed.ok()) {
    *out = parsed.value();
  }
  return parsed.status();
}

}  // namespace

SpecKey SpecGrammar::IntKey(const char* key, int lo, int hi, int* out) const {
  return {key, [this, key, lo, hi, out](const SpecField& v) {
            return Store(Int(v, key, lo, hi), out);
          }};
}

SpecKey SpecGrammar::SeedKey(const char* key, std::uint64_t* out) const {
  return {key, [this, key, out](const SpecField& v) { return Store(Seed(v, key), out); }};
}

SpecKey SpecGrammar::NumberKey(const char* key, double* out, const char* expected,
                               bool (*ok)(double)) const {
  return {key, [this, key, out, expected, ok](const SpecField& v) {
            return Store(Number(v, key, expected, ok), out);
          }};
}

SpecKey SpecGrammar::BoolKey(const char* key, bool* out) const {
  return {key, [this, key, out](const SpecField& v) { return Store(Bool(v, key), out); }};
}

Status SpecGrammar::ParseKeyValues(const SpecField& list, const std::string& noun,
                                   const std::vector<SpecKey>& keys) const {
  std::vector<bool> seen(keys.size(), false);
  for (const SpecField& entry : SplitSpec(list.text, ',', list.offset)) {
    if (entry.text.empty()) {
      continue;
    }
    const std::size_t eq = entry.text.find('=');
    if (eq == std::string::npos) {
      return Error(entry.offset, "expected key=value, got '" + entry.text + "'");
    }
    const std::string key = entry.text.substr(0, eq);
    const auto it = std::find_if(keys.begin(), keys.end(),
                                 [&key](const SpecKey& k) { return key == k.name; });
    if (it == keys.end()) {
      return Error(entry.offset, "unknown " + noun + " '" + key + "'");
    }
    const auto slot = static_cast<std::size_t>(it - keys.begin());
    if (seen[slot]) {
      return Error(entry.offset, "duplicate " + noun + " '" + key + "'");
    }
    seen[slot] = true;
    HARMONY_RETURN_IF_ERROR(
        it->parse(SpecField{entry.text.substr(eq + 1), entry.offset + eq + 1}));
  }
  return Status::Ok();
}

}  // namespace harmony
