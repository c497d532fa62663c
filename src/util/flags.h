// Minimal command-line flag parsing for the tools: --key=value / --key value / --bool.
//
// Not a general-purpose library — just enough for harmony_sim's options without external
// dependencies. Unknown flags are errors (catches typos in experiment scripts).
#ifndef HARMONY_SRC_UTIL_FLAGS_H_
#define HARMONY_SRC_UTIL_FLAGS_H_

#include <map>
#include <string>
#include <vector>

#include "src/util/status.h"

namespace harmony {

class FlagParser {
 public:
  // Declares a flag with a default and a help line; returns *this for chaining.
  FlagParser& Define(const std::string& name, const std::string& default_value,
                     const std::string& help);

  // Parses argv; flags are "--name=value", "--name value", or bare "--name" (-> "true").
  // Positional arguments are rejected.
  Status Parse(int argc, const char* const* argv);

  const std::string& Get(const std::string& name) const;

  // Typed getters (util/spec_grammar.h value rules): the whole value must parse, otherwise
  // an actionable error naming the flag and the offending text. Booleans accept
  // true/1/yes/on and false/0/no/off.
  StatusOr<int> GetCheckedInt(const std::string& name) const;
  StatusOr<double> GetCheckedDouble(const std::string& name) const;
  StatusOr<bool> GetCheckedBool(const std::string& name) const;

  std::string Usage(const std::string& program) const;

 private:
  struct Flag {
    std::string value;
    std::string default_value;
    std::string help;
  };
  std::map<std::string, Flag> flags_;
  std::vector<std::string> order_;
};

}  // namespace harmony

#endif  // HARMONY_SRC_UTIL_FLAGS_H_
