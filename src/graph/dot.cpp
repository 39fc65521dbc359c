#include "graph/dot.hpp"

#include <map>
#include <ostream>
#include <sstream>

namespace expmk::graph {

namespace {

std::string kernel_prefix(std::string_view name) {
  const auto pos = name.find('_');
  return std::string(name.substr(0, pos));
}

std::string color_for(const std::string& prefix) {
  // One pastel per kernel family across all three factorizations.
  static const std::map<std::string, std::string> palette = {
      {"POTRF", "#ffd29b"}, {"TRSM", "#a8d5a2"},  {"SYRK", "#9fc5e8"},
      {"GEMM", "#f4cccc"},  {"GETRF", "#ffd29b"}, {"TRSML", "#a8d5a2"},
      {"TRSMU", "#b6d7a8"}, {"GEQRT", "#ffd29b"}, {"TSQRT", "#a8d5a2"},
      {"UNMQR", "#9fc5e8"}, {"TSMQR", "#f4cccc"},
  };
  const auto it = palette.find(prefix);
  return it == palette.end() ? "#ffffff" : it->second;
}

std::string escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

}  // namespace

void write_dot(std::ostream& os, const Dag& g, const DotOptions& options) {
  os << "digraph " << options.graph_name << " {\n";
  os << "  rankdir=TB;\n  node [shape=box, style=filled];\n";
  for (TaskId v = 0; v < g.task_count(); ++v) {
    std::string label(g.name(v));
    if (label.empty()) label = "t" + std::to_string(v);
    std::ostringstream full_label;
    full_label << escape(label);
    if (options.show_weights) {
      full_label << "\\n" << g.weight(v) << "s";
    }
    os << "  n" << v << " [label=\"" << full_label.str() << "\", fillcolor=\""
       << color_for(kernel_prefix(g.name(v))) << "\"];\n";
  }
  for (TaskId u = 0; u < g.task_count(); ++u) {
    for (const TaskId v : g.successors(u)) {
      os << "  n" << u << " -> n" << v << ";\n";
    }
  }
  os << "}\n";
}

}  // namespace expmk::graph
