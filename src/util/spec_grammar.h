// The kit behind every text grammar the tools accept (--faults, --cluster, --jobs,
// --trace, --quota) and behind FlagParser's checked getters: field splitting that keeps
// byte offsets, one error format, range-checked value parsers, and a key=value list walker.
//
// Every grammar error reads "<prefix>: <why> (at byte N; see --help for the <grammar>)",
// where N is the absolute offset of the offending field in the spec string (the same
// convention as util/json.h's parse errors).
#ifndef HARMONY_SRC_UTIL_SPEC_GRAMMAR_H_
#define HARMONY_SRC_UTIL_SPEC_GRAMMAR_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/util/status.h"

namespace harmony {

// Whole-text value parsers (strtol/strtod rules: leading whitespace and a '+' sign are
// accepted). Each returns nullopt on empty text, trailing garbage, or a value that does not
// fit: ParseInteger checks [lo, hi] before the caller narrows, ParseUnsigned rejects a '-'
// sign and values past 2^64 - 1, ParseFinite rejects NaN and infinities.
std::optional<std::int64_t> ParseInteger(std::string_view text, std::int64_t lo,
                                         std::int64_t hi);
std::optional<std::uint64_t> ParseUnsigned(std::string_view text);
std::optional<double> ParseFinite(std::string_view text);
// true/1/yes/on or false/0/no/off.
std::optional<bool> ParseBool(std::string_view text);

// The largest count the cluster and jobs grammars accept (nodes, GPUs, iterations, ...).
inline constexpr int kMaxSpecCount = 1 << 20;

// One field of a spec and the absolute byte offset where it starts.
struct SpecField {
  std::string text;
  std::size_t offset = 0;
};

// Splits `text` on `sep`, keeping empty fields; `base` is the offset of `text` in the spec.
std::vector<SpecField> SplitSpec(std::string_view text, char sep, std::size_t base = 0);

// One key of a key=value list and the parser for its value.
struct SpecKey {
  const char* name;
  std::function<Status(const SpecField& value)> parse;
};

// A grammar's error context plus the typed field parsers that report through it. Each
// parser rejects at the field's offset and names `key` and the offending text.
class SpecGrammar {
 public:
  // `prefix` opens every error ("malformed cluster spec"); `grammar` names the --help
  // section it points to ("--cluster grammar").
  SpecGrammar(std::string prefix, std::string grammar)
      : prefix_(std::move(prefix)), grammar_(std::move(grammar)) {}

  Status Error(std::size_t offset, const std::string& why) const;

  // "<key> must be an integer in [lo, hi], got '<text>'".
  StatusOr<int> Int(const SpecField& field, const std::string& key, int lo, int hi) const;
  // "<key> must be an unsigned integer, got '<text>'".
  StatusOr<std::uint64_t> Seed(const SpecField& field, const std::string& key) const;
  // "<key> must be <expected>, got '<text>'" when the text is not a finite number or `ok`
  // (if given) rejects its value.
  StatusOr<double> Number(const SpecField& field, const std::string& key,
                          const char* expected = "a finite number",
                          bool (*ok)(double) = nullptr) const;
  // "<key> must be 0, 1, true or false (or yes/no, on/off), got '<text>'".
  StatusOr<bool> Bool(const SpecField& field, const std::string& key) const;
  // "<prefix><i>" with i in [0, INT_MAX]: "expected a target like '<prefix>0', got '<text>'".
  StatusOr<int> Target(const SpecField& field, std::string_view prefix) const;

  // SpecKey factories for ParseKeyValues: parse the value with the matching parser above
  // and store it in *out. The grammar must outlive the returned key.
  SpecKey IntKey(const char* key, int lo, int hi, int* out) const;
  SpecKey SeedKey(const char* key, std::uint64_t* out) const;
  SpecKey NumberKey(const char* key, double* out, const char* expected = "a finite number",
                    bool (*ok)(double) = nullptr) const;
  SpecKey BoolKey(const char* key, bool* out) const;

  // Walks `list` as "key=value,key=value,...": empty entries are skipped, and each value is
  // handed to its key's parser in spec order. An entry without '=', an unknown key or a
  // repeated key is an error at the entry's offset ("unknown <noun> 'k'", "duplicate
  // <noun> 'k'").
  Status ParseKeyValues(const SpecField& list, const std::string& noun,
                        const std::vector<SpecKey>& keys) const;

 private:
  std::string prefix_;
  std::string grammar_;
};

}  // namespace harmony

#endif  // HARMONY_SRC_UTIL_SPEC_GRAMMAR_H_
