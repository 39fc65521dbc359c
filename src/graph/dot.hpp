// graph/dot.hpp
//
// Graphviz DOT export. The paper's Figures 1-3 are drawings of the k=5
// Cholesky/LU/QR DAGs; examples/factorization_gallery regenerates them as
// .dot files with one fill color per BLAS kernel family.

#pragma once

#include <iosfwd>
#include <string>

#include "graph/dag.hpp"

namespace expmk::graph {

/// Export options.
struct DotOptions {
  /// Graph name in the DOT header.
  std::string graph_name = "taskgraph";
  /// Append the task weight to the label, e.g. "GEMM_3_2_1\n0.187s".
  bool show_weights = false;
};

/// Writes the DOT representation of `g` to `os`. Nodes are colored by the
/// prefix of their name before the first '_' (BLAS kernel family);
/// unknown prefixes, and unnamed tasks, get white.
void write_dot(std::ostream& os, const Dag& g, const DotOptions& options = {});

}  // namespace expmk::graph
