// graph/serialize.hpp
//
// A minimal text format for task graphs so DAGs can be saved, diffed and
// fed to the CLI tool and the serving daemon. Format (line oriented, '#'
// comments):
//
//   expmk-taskgraph 1
//   task <name> <weight>
//   edge <from-name> <to-name>
//
// Version 2 additionally round-trips per-task silent-error rates (the
// heterogeneous scenario input, scenario/scenario.hpp):
//
//   expmk-taskgraph 2
//   task <name> <weight> <rate>
//   edge <from-name> <to-name>
//
// Accepted grammar (what the reader takes; the writer emits a strict
// subset of it):
//
//   * Lines end at '\n'. Everything from the first '#' on a line is a
//     comment. A line with no token left is skipped.
//   * Tokens are split on the whitespace set ' ', '\t', '\v', '\f', '\r'
//     (so CRLF files read like LF files). A name is any run of other
//     bytes.
//   * The first non-blank line is the header: the token
//     "expmk-taskgraph", then a version read as [+-]digits (1 or 2).
//   * Tasks and edges may interleave in any order, but an edge must
//     follow the declarations of both of its endpoints.
//   * A number is the longest prefix of [+-] digits[.digits] [(e|E)
//     [+-] digits] (the leading or trailing digit group may be empty,
//     not both). Only decimal: no inf, nan or hex floats. An 'e' with
//     no exponent digits, or a value that overflows a double, is an
//     error. A value that underflows reads as a subnormal or a signed
//     zero. "-0" is accepted as a weight (-0.0 is not negative).
//   * A number ends where that grammar stops, not at whitespace: the
//     rest of the token is what the next field reads. So in version 1
//     "task a 1.5x" reads weight 1.5, while in version 2 the rate read
//     then fails on "x". Tokens after the last field of a line, and
//     after the header's version, are ignored.
//
// This is exactly what the original istream reader (`std::getline` plus
// `>>` in the classic locale) accepted, error text and line numbers
// included; tests/taskgraph_reference.* keeps that reader as the oracle.
//
// Names must be unique; tasks must be declared before edges referencing
// them. The writer emits tasks in id order, so write->read round-trips
// preserve TaskIds (and rates, bit-exactly: both columns are printed as
// "%.17g", i.e. max_digits10). Graphs without rates are always written
// as version 1, keeping existing artifacts byte-stable. Those bytes are
// also the input of the serving cache keys (scenario/content_hash.hpp),
// so the writer's output is frozen.

#pragma once

#include <iosfwd>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "graph/dag.hpp"

namespace expmk::graph {

/// A parsed task-graph file: the DAG plus the optional per-task failure
/// rates a version-2 file carries.
struct TaskGraphFile {
  Dag dag;
  /// rates[i] = task i's silent-error rate lambda_i; empty for a
  /// version-1 file.
  std::vector<double> rates;

  [[nodiscard]] bool has_rates() const noexcept { return !rates.empty(); }
};

/// Writes `g` in the version-1 expmk-taskgraph format.
void write_taskgraph(std::ostream& os, const Dag& g);

/// Writes `g` with per-task rates in the version-2 format. `rates` must
/// have task_count() entries, each finite and >= 0 (std::invalid_argument
/// otherwise).
void write_taskgraph(std::ostream& os, const Dag& g,
                     std::span<const double> rates);

/// Serializes to a string (version 1).
[[nodiscard]] std::string to_taskgraph(const Dag& g);

/// Serializes to a string with per-task rates (version 2).
[[nodiscard]] std::string to_taskgraph(const Dag& g,
                                       std::span<const double> rates);

/// Parses either format version from a string, keeping rates; throws
/// std::invalid_argument with a line number on malformed input (bad
/// header, unknown directive, duplicate name, unknown endpoint,
/// non-numeric weight, missing/negative rate). The one parser: the file
/// entry points read their whole input and call this.
[[nodiscard]] TaskGraphFile taskgraph_file_from_string(std::string_view text);

/// Parses from a string, discarding any rates.
[[nodiscard]] Dag taskgraph_from_string(std::string_view text);

/// Convenience file helpers; throw std::runtime_error on I/O failure.
void save_taskgraph(const std::string& path, const Dag& g);
void save_taskgraph(const std::string& path, const Dag& g,
                    std::span<const double> rates);
[[nodiscard]] Dag load_taskgraph(const std::string& path);
[[nodiscard]] TaskGraphFile load_taskgraph_file(const std::string& path);

}  // namespace expmk::graph
