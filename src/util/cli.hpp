// Minimal command-line flag parsing shared by examples and bench binaries.
//
// Syntax: --name=value or --name value; bare --flag sets a boolean true.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace fbt {

/// Parses argv into a key/value map plus positional arguments.
class Cli {
 public:
  Cli(int argc, const char* const* argv);

  /// True if --name was present (with or without a value).
  bool has(const std::string& name) const;

  /// String value of --name, or `fallback` when absent.
  std::string get(const std::string& name, const std::string& fallback) const;

  /// Integer value of --name, or `fallback` when absent. Throws on non-integer.
  std::int64_t get_int(const std::string& name, std::int64_t fallback) const;

  /// get_int checked against [min, max]: a value outside the range prints
  /// "<program>: --name must be in [min, max], got <value>" to stderr and
  /// exits with status 2, so a CLI refuses it before allocating anything. A
  /// value that is not an integer exits 2 the same way.
  std::int64_t get_int_in(const std::string& name, std::int64_t fallback,
                          std::int64_t min, std::int64_t max) const;

  /// Double value of --name, or `fallback` when absent.
  double get_double(const std::string& name, double fallback) const;

  const std::vector<std::string>& positional() const { return positional_; }
  const std::string& program() const { return program_; }

 private:
  std::string program_;
  std::map<std::string, std::string> flags_;
  std::vector<std::string> positional_;
};

}  // namespace fbt
