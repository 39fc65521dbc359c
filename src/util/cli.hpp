// util/cli.hpp
//
// Minimal command-line option parser for the bench/example executables.
// Supports `--name value`, `--name=value` and boolean `--flag` forms; any
// unknown option or malformed number aborts with a usage message so
// experiment scripts fail loudly instead of silently ignoring a typo'd
// parameter.

#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace expmk::util {

/// Declarative CLI: register options with defaults, then parse().
///
///   Cli cli("fig_cholesky", "Reproduces Figures 4-6");
///   cli.add_int("trials", 300000, "Monte-Carlo trials");
///   cli.add_flag("csv", "emit CSV instead of an aligned table");
///   cli.parse(argc, argv);
///   const std::int64_t trials = cli.get_int("trials");
class Cli {
 public:
  Cli(std::string program, std::string description);

  /// Registers an integer option with a default.
  void add_int(const std::string& name, std::int64_t def,
               const std::string& help);
  /// Registers a floating-point option with a default.
  void add_double(const std::string& name, double def,
                  const std::string& help);
  /// Registers a string option with a default.
  void add_string(const std::string& name, std::string def,
                  const std::string& help);
  /// Registers a boolean flag (defaults to false).
  void add_flag(const std::string& name, const std::string& help);

  /// Parses argv. On `--help` prints usage and exits(0); on error prints
  /// usage and exits(2).
  void parse(int argc, const char* const* argv);

  [[nodiscard]] std::int64_t get_int(const std::string& name) const;
  /// An integer option that counts something (trials, runs, atoms,
  /// threads): a negative value fails like a malformed option instead of
  /// wrapping to ~1.8e19 in an unsigned cast.
  [[nodiscard]] std::uint64_t get_count(const std::string& name) const;
  [[nodiscard]] double get_double(const std::string& name) const;
  [[nodiscard]] const std::string& get_string(const std::string& name) const;
  [[nodiscard]] bool get_flag(const std::string& name) const;

  /// A string option read as a comma-separated list; empty items are
  /// skipped. The numeric forms parse every item whole: "4x6" is an
  /// error, not 4. A malformed item fails like a malformed option.
  [[nodiscard]] std::vector<std::string> get_list(
      const std::string& name) const;
  [[nodiscard]] std::vector<int> get_ints(const std::string& name) const;
  [[nodiscard]] std::vector<double> get_doubles(const std::string& name) const;

  /// Renders the usage text (also used by tests).
  [[nodiscard]] std::string usage() const;

  /// Prints `message` and the usage text to stderr and exits(2).
  [[noreturn]] void fail(const std::string& message) const;

 private:
  enum class Kind { Int, Double, String, Flag };
  struct Option {
    Kind kind;
    std::string value;  // canonical textual value
    std::string help;
  };

  const Option& find(const std::string& name, Kind kind) const;

  std::string program_;
  std::string description_;
  std::map<std::string, Option> options_;
};

}  // namespace expmk::util
