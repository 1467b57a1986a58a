// Minimal command-line flag parser for the CLI tools and examples.
// Supports --flag=value, --flag value, and boolean --flag forms; collects
// unknown flags as errors and prints a generated usage string.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace mpcspan {

class ArgParser {
 public:
  ArgParser(std::string program, std::string description);

  /// Registers a flag with a default value; returns *this for chaining.
  ArgParser& flag(const std::string& name, const std::string& defaultValue,
                  const std::string& help);

  /// Parses argv. Returns false (and fills error()) on unknown flags or
  /// missing values. "--help" sets helpRequested().
  bool parse(int argc, const char* const* argv);

  bool has(const std::string& name) const;
  std::string get(const std::string& name) const;
  /// Numeric reads reject an empty value, trailing garbage, and
  /// out-of-range input with std::invalid_argument naming the flag (so read
  /// a flag whose default is empty only when has() is true).
  std::int64_t getInt(const std::string& name) const;
  double getDouble(const std::string& name) const;
  /// getInt restricted to [0, 2^63): counts, sizes, ids.
  std::size_t getCount(const std::string& name) const;
  /// getInt restricted to a TCP port, [0, 65535] (0 = ephemeral).
  std::uint16_t getPort(const std::string& name) const;
  /// Accepts true/1/yes/on and false/0/no/off; an empty value reads as
  /// the flag's default (false if that is empty too). Anything else throws
  /// std::invalid_argument naming the flag.
  bool getBool(const std::string& name) const;

  bool helpRequested() const { return helpRequested_; }
  const std::string& error() const { return error_; }
  std::string usage() const;

 private:
  struct Spec {
    std::string defaultValue;
    std::string help;
  };
  std::string program_;
  std::string description_;
  std::vector<std::string> order_;
  std::map<std::string, Spec> specs_;
  std::map<std::string, std::string> values_;
  bool helpRequested_ = false;
  std::string error_;
};

/// Reads an integer env knob with the same strict parse as getInt (base 10,
/// no whitespace or trailing garbage, within int64): unset or empty yields
/// `fallback`; a malformed value, or one outside [lo, hi], throws
/// std::invalid_argument naming the variable.
std::int64_t envInteger(const char* name, std::int64_t fallback,
                        std::int64_t lo, std::int64_t hi);
/// Reads a 0/1 env switch (unset or empty = off); any other value throws
/// std::invalid_argument naming the variable.
bool envFlag(const char* name);

}  // namespace mpcspan
