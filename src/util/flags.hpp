// Tiny CLI flag parser used by every bench and example binary.
// Syntax: --name=value, --name value, or bare --name for booleans.
// Unknown flags are an error (typos in sweep parameters must not be
// silently ignored -- they would quietly change an experiment).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace hmxp::util {

class Flags {
 public:
  /// Registers flags before parsing. `help` is printed by usage().
  void define(const std::string& name, const std::string& default_value,
              const std::string& help);
  void define_bool(const std::string& name, bool default_value,
                   const std::string& help);

  /// Parses argv; throws std::invalid_argument on unknown/malformed flags.
  /// Recognizes --help and sets help_requested().
  void parse(int argc, const char* const* argv);
  /// parse() for a program's main(): an unknown or malformed flag prints
  /// the error and the usage to stderr and exits with status 2.
  void parse_or_exit(int argc, const char* const* argv);

  bool help_requested() const { return help_requested_; }
  std::string usage(const std::string& program_description) const;

  /// Typed getters; throw if the flag was never defined or fails to parse.
  std::string get_string(const std::string& name) const;
  double get_double(const std::string& name) const;
  long long get_int(const std::string& name) const;
  bool get_bool(const std::string& name) const;

  /// Positional (non-flag) arguments in order.
  const std::vector<std::string>& positional() const { return positional_; }

  /// True if the user explicitly supplied the flag.
  bool provided(const std::string& name) const;

 private:
  struct Spec {
    std::string default_value;
    std::string help;
    bool is_bool = false;
  };
  std::map<std::string, Spec> specs_;
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
  bool help_requested_ = false;

  const Spec& spec_or_throw(const std::string& name) const;
};

}  // namespace hmxp::util
