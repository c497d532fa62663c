#include "src/util/flags.h"

#include <climits>
#include <cstdint>
#include <sstream>

#include "src/util/check.h"
#include "src/util/spec_grammar.h"

namespace harmony {

FlagParser& FlagParser::Define(const std::string& name, const std::string& default_value,
                               const std::string& help) {
  HCHECK(flags_.find(name) == flags_.end()) << "duplicate flag --" << name;
  flags_[name] = Flag{default_value, default_value, help};
  order_.push_back(name);
  return *this;
}

Status FlagParser::Parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      return InvalidArgumentError("unexpected positional argument: " + arg);
    }
    arg = arg.substr(2);
    std::string name = arg;
    std::string value;
    bool has_value = false;
    const std::size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      name = arg.substr(0, eq);
      value = arg.substr(eq + 1);
      has_value = true;
    }
    auto it = flags_.find(name);
    if (it == flags_.end()) {
      return InvalidArgumentError("unknown flag --" + name);
    }
    if (!has_value) {
      // "--flag value" when the next token is not a flag; bare "--flag" means true.
      if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        value = argv[++i];
      } else {
        value = "true";
      }
    }
    it->second.value = value;
  }
  return Status::Ok();
}

const std::string& FlagParser::Get(const std::string& name) const {
  auto it = flags_.find(name);
  HCHECK(it != flags_.end()) << "undeclared flag --" << name;
  return it->second.value;
}

StatusOr<int> FlagParser::GetCheckedInt(const std::string& name) const {
  const std::string& v = Get(name);
  const std::optional<std::int64_t> value = ParseInteger(v, INT64_MIN, INT64_MAX);
  if (!value) {
    return InvalidArgumentError("--" + name + " expects an integer, got '" + v + "'");
  }
  if (*value < INT_MIN || *value > INT_MAX) {
    return InvalidArgumentError("--" + name + " value '" + v + "' is out of range");
  }
  return static_cast<int>(*value);
}

StatusOr<double> FlagParser::GetCheckedDouble(const std::string& name) const {
  const std::string& v = Get(name);
  const std::optional<double> value = ParseFinite(v);
  if (!value) {
    return InvalidArgumentError("--" + name + " expects a finite number, got '" + v + "'");
  }
  return *value;
}

StatusOr<bool> FlagParser::GetCheckedBool(const std::string& name) const {
  const std::string& v = Get(name);
  const std::optional<bool> value = ParseBool(v);
  if (!value) {
    return InvalidArgumentError("--" + name + " expects true/false, got '" + v + "'");
  }
  return *value;
}

std::string FlagParser::Usage(const std::string& program) const {
  std::ostringstream os;
  os << "usage: " << program << " [flags]\n";
  for (const std::string& name : order_) {
    const Flag& flag = flags_.at(name);
    os << "  --" << name << " (default: " << flag.default_value << ")  " << flag.help << "\n";
  }
  return os.str();
}

}  // namespace harmony
