#include "util/args.hpp"

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <stdexcept>
#include <string>

namespace mpcspan {

ArgParser::ArgParser(std::string program, std::string description)
    : program_(std::move(program)), description_(std::move(description)) {}

ArgParser& ArgParser::flag(const std::string& name, const std::string& defaultValue,
                           const std::string& help) {
  if (specs_.emplace(name, Spec{defaultValue, help}).second) order_.push_back(name);
  return *this;
}

bool ArgParser::parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      helpRequested_ = true;
      return true;
    }
    if (arg.rfind("--", 0) != 0) {
      error_ = "unexpected positional argument: " + arg;
      return false;
    }
    arg = arg.substr(2);
    std::string value;
    const auto eq = arg.find('=');
    bool haveValue = false;
    if (eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
      haveValue = true;
    }
    const auto it = specs_.find(arg);
    if (it == specs_.end()) {
      error_ = "unknown flag: --" + arg;
      return false;
    }
    if (!haveValue) {
      // "--flag value" unless the next token is another flag (boolean form).
      if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        value = argv[++i];
      } else {
        value = "true";
      }
    }
    values_[arg] = value;
  }
  return true;
}

bool ArgParser::has(const std::string& name) const {
  return values_.count(name) > 0;
}

std::string ArgParser::get(const std::string& name) const {
  const auto v = values_.find(name);
  if (v != values_.end()) return v->second;
  const auto s = specs_.find(name);
  if (s == specs_.end()) throw std::invalid_argument("unregistered flag: " + name);
  return s->second.defaultValue;
}

namespace {

/// The one strict integer parse behind getInt and the env knobs; errors
/// name `what` (a flag's "--name" or an env variable's name).
std::int64_t parseInteger(const std::string& what, const std::string& text) {
  char* end = nullptr;
  errno = 0;
  const long long x = std::strtoll(text.c_str(), &end, 10);
  if (text.empty() || std::isspace(static_cast<unsigned char>(text[0])) ||
      *end != '\0')
    throw std::invalid_argument(what + ": expected an integer, got '" + text +
                                "'");
  if (errno == ERANGE)
    throw std::invalid_argument(what + ": integer out of range: " + text);
  return x;
}

}  // namespace

std::int64_t envInteger(const char* name, std::int64_t fallback,
                        std::int64_t lo, std::int64_t hi) {
  const char* env = std::getenv(name);
  if (env == nullptr || *env == '\0') return fallback;
  const std::int64_t x = parseInteger(name, env);
  if (x < lo || x > hi)
    throw std::invalid_argument(std::string(name) + " must be in [" +
                                std::to_string(lo) + ", " +
                                std::to_string(hi) + "], got " + env);
  return x;
}

bool envFlag(const char* name) { return envInteger(name, 0, 0, 1) == 1; }

std::int64_t ArgParser::getInt(const std::string& name) const {
  return parseInteger("--" + name, get(name));
}

double ArgParser::getDouble(const std::string& name) const {
  const std::string v = get(name);
  char* end = nullptr;
  errno = 0;
  const double x = std::strtod(v.c_str(), &end);
  if (v.empty() || *end != '\0')
    throw std::invalid_argument("--" + name + ": expected a number, got '" +
                                v + "'");
  if (errno == ERANGE)
    throw std::invalid_argument("--" + name + ": number out of range: " + v);
  return x;
}

std::size_t ArgParser::getCount(const std::string& name) const {
  const std::int64_t x = getInt(name);
  if (x < 0)
    throw std::invalid_argument("--" + name + ": must not be negative, got " +
                                std::to_string(x));
  return static_cast<std::size_t>(x);
}

std::uint16_t ArgParser::getPort(const std::string& name) const {
  const std::int64_t x = getInt(name);
  if (x < 0 || x > 65535)
    throw std::invalid_argument("--" + name + ": port must be in [0, 65535], got " +
                                std::to_string(x));
  return static_cast<std::uint16_t>(x);
}

bool ArgParser::getBool(const std::string& name) const {
  std::string v = get(name);
  if (v.empty()) v = specs_.at(name).defaultValue;
  if (v.empty() || v == "false" || v == "0" || v == "no" || v == "off")
    return false;
  if (v == "true" || v == "1" || v == "yes" || v == "on") return true;
  throw std::invalid_argument("--" + name +
                              ": expected true/1/yes/on or false/0/no/off, "
                              "got '" + v + "'");
}

std::string ArgParser::usage() const {
  std::string out = program_ + " — " + description_ + "\n\nflags:\n";
  for (const std::string& name : order_) {
    const Spec& s = specs_.at(name);
    out += "  --" + name;
    if (!s.defaultValue.empty()) out += " (default: " + s.defaultValue + ")";
    out += "\n      " + s.help + "\n";
  }
  return out;
}

}  // namespace mpcspan
