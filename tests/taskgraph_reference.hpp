// Test-only reference taskgraph reader and writer: the original iostream
// implementation of graph/serialize, kept verbatim as an oracle. The
// library's string_view scanner and to_chars writer must agree with it
// on every input (tests/test_taskgraph_reader.cpp): the same accept or
// reject decision, the same exception text, the same Dag and rates bit
// for bit, and byte-identical written text (the content-hash keys hash
// that text).

#pragma once

#include <iosfwd>
#include <span>
#include <string>

#include "graph/dag.hpp"
#include "graph/serialize.hpp"

namespace expmk::test {

/// The istream reader: std::getline lines, `>>` tokens and numbers.
[[nodiscard]] graph::TaskGraphFile reference_read_taskgraph_file(
    std::istream& is);

/// Parses a string through reference_read_taskgraph_file.
[[nodiscard]] graph::TaskGraphFile reference_taskgraph_file_from_string(
    const std::string& text);

/// The ostream writer at precision max_digits10; `rates` empty writes
/// version 1, otherwise version 2 (validated like graph::to_taskgraph).
[[nodiscard]] std::string reference_to_taskgraph(
    const graph::Dag& g, std::span<const double> rates = {});

}  // namespace expmk::test
