#pragma once

/// \file args.hpp
/// Minimal command-line flag parser for the CLI driver and examples, and
/// the strict reader for counts taken from the environment.
/// Flags are --name value or --name=value; bool flags may omit the value.
/// Unknown flags are an error (catches typos in experiment scripts).

#include <initializer_list>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "sccpipe/support/status.hpp"

namespace sccpipe {

/// Strict read of a count taken from environment variable \p name: the
/// whole of \p text must be decimal digits naming a value in 1..\p max
/// (no sign, spaces or suffix). InvalidArgument naming the variable and
/// the text otherwise; *out is written only on success.
Status parse_env_count(const char* name, std::string_view text, int max,
                       int* out);

/// parse_env_count() on the current value of \p name. Ok, with *out left
/// alone, when the variable is unset.
Status env_count(const char* name, int max, int* out);

class ArgParser {
 public:
  /// Register flags before parse(). \p help is printed by usage().
  void add_flag(const std::string& name, const std::string& help,
                const std::string& default_value = "");

  /// Parse argv; returns false (and fills error()) on unknown or malformed
  /// flags. Positional arguments are collected separately.
  bool parse(int argc, const char* const* argv);

  bool has(const std::string& name) const;
  std::string get(const std::string& name) const;
  int get_int(const std::string& name) const;
  double get_double(const std::string& name) const;
  /// Strict reads: empty unless the whole value parses and fits (get_int
  /// maps "abc" to 0).
  std::optional<int> parse_int(const std::string& name) const;
  std::optional<double> parse_double(const std::string& name) const;
  /// parse_int() on every flag in \p ints and parse_double() on every one
  /// in \p numbers: empty if all parse, else the first failure as
  /// "--<flag> expects an integer, got '<value>'" (or "a number").
  std::string check_numeric(std::initializer_list<const char*> ints,
                            std::initializer_list<const char*> numbers) const;
  bool get_bool(const std::string& name) const;

  const std::vector<std::string>& positional() const { return positional_; }
  const std::string& error() const { return error_; }
  std::string usage(const std::string& program) const;

 private:
  struct Flag {
    std::string help;
    std::string value;
    bool seen = false;
  };
  std::map<std::string, Flag> flags_;
  std::vector<std::string> order_;
  std::vector<std::string> positional_;
  std::string error_;
};

}  // namespace sccpipe
