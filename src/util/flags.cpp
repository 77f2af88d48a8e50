#include "util/flags.hpp"

#include <cstdlib>
#include <iostream>
#include <sstream>
#include <stdexcept>

#include "util/check.hpp"
#include "util/strings.hpp"

namespace hmxp::util {

void Flags::define(const std::string& name, const std::string& default_value,
                   const std::string& help) {
  HMXP_REQUIRE(!name.empty(), "flag name must not be empty");
  HMXP_REQUIRE(specs_.find(name) == specs_.end(), "duplicate flag: " + name);
  specs_[name] = Spec{default_value, help, /*is_bool=*/false};
}

void Flags::define_bool(const std::string& name, bool default_value,
                        const std::string& help) {
  HMXP_REQUIRE(!name.empty(), "flag name must not be empty");
  HMXP_REQUIRE(specs_.find(name) == specs_.end(), "duplicate flag: " + name);
  specs_[name] = Spec{default_value ? "true" : "false", help, /*is_bool=*/true};
}

void Flags::parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      help_requested_ = true;
      continue;
    }
    if (!starts_with(arg, "--")) {
      positional_.push_back(arg);
      continue;
    }
    std::string body = arg.substr(2);
    std::string name;
    std::string value;
    bool has_value = false;
    const std::size_t eq = body.find('=');
    if (eq != std::string::npos) {
      name = body.substr(0, eq);
      value = body.substr(eq + 1);
      has_value = true;
    } else {
      name = body;
    }
    const auto it = specs_.find(name);
    if (it == specs_.end())
      throw std::invalid_argument("unknown flag: --" + name);
    if (!has_value) {
      if (it->second.is_bool) {
        value = "true";  // bare --flag means true
      } else if (i + 1 < argc) {
        value = argv[++i];
      } else {
        throw std::invalid_argument("flag --" + name + " needs a value");
      }
    }
    values_[name] = value;
  }
}

void Flags::parse_or_exit(int argc, const char* const* argv) {
  try {
    parse(argc, argv);
  } catch (const std::invalid_argument& error) {
    const std::string program = argc > 0 ? argv[0] : "program";
    std::cerr << "error: " << error.what() << '\n'
              << usage("usage: " + program + " [--flag=value ...]");
    std::exit(2);
  }
}

const Flags::Spec& Flags::spec_or_throw(const std::string& name) const {
  const auto it = specs_.find(name);
  if (it == specs_.end())
    throw std::invalid_argument("flag was never defined: --" + name);
  return it->second;
}

std::string Flags::get_string(const std::string& name) const {
  const Spec& spec = spec_or_throw(name);
  const auto it = values_.find(name);
  return it == values_.end() ? spec.default_value : it->second;
}

double Flags::get_double(const std::string& name) const {
  return parse_double(get_string(name));
}

long long Flags::get_int(const std::string& name) const {
  return parse_int(get_string(name));
}

bool Flags::get_bool(const std::string& name) const {
  return parse_bool(get_string(name));
}

bool Flags::provided(const std::string& name) const {
  spec_or_throw(name);
  return values_.find(name) != values_.end();
}

std::string Flags::usage(const std::string& program_description) const {
  std::ostringstream os;
  os << program_description << "\n\nFlags:\n";
  for (const auto& [name, spec] : specs_) {
    os << "  --" << name;
    if (!spec.is_bool) os << "=<value>";
    os << "  (default: " << spec.default_value << ")\n      " << spec.help
       << '\n';
  }
  os << "  --help\n      Print this message.\n";
  return os.str();
}

}  // namespace hmxp::util
