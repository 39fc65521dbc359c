#include "taskgraph_reference.hpp"

#include <cmath>
#include <limits>
#include <map>
#include <sstream>
#include <stdexcept>

namespace expmk::test {

using graph::Dag;
using graph::TaskGraphFile;
using graph::TaskId;

namespace {

[[noreturn]] void parse_error(std::size_t line, const std::string& message) {
  throw std::invalid_argument("taskgraph parse error at line " +
                              std::to_string(line) + ": " + message);
}

std::string auto_name(TaskId id) { return "t" + std::to_string(id); }

std::string display_name(const Dag& g, TaskId id) {
  const std::string_view name = g.name(id);
  return name.empty() ? auto_name(id) : std::string(name);
}

/// Shared writer; `rates` empty selects version 1 (the historical format,
/// byte-stable for graphs without rates).
void write_impl(std::ostream& os, const Dag& g,
                std::span<const double> rates) {
  // max_digits10 so that weight/rate round-trips are bit-exact.
  const auto old_precision =
      os.precision(std::numeric_limits<double>::max_digits10);
  const int version = rates.empty() ? 1 : 2;
  os << "expmk-taskgraph " << version << '\n';
  for (TaskId v = 0; v < g.task_count(); ++v) {
    os << "task " << display_name(g, v) << ' ' << g.weight(v);
    if (version == 2) os << ' ' << rates[v];
    os << '\n';
  }
  for (TaskId u = 0; u < g.task_count(); ++u) {
    for (const TaskId v : g.successors(u)) {
      os << "edge " << display_name(g, u) << ' ' << display_name(g, v)
         << '\n';
    }
  }
  os.precision(old_precision);
}

}  // namespace

std::string reference_to_taskgraph(const Dag& g,
                                   std::span<const double> rates) {
  if (!rates.empty()) {
    if (rates.size() != g.task_count()) {
      throw std::invalid_argument(
          "write_taskgraph: rates size mismatch with task count");
    }
    for (const double r : rates) {
      if (!(r >= 0.0) || !std::isfinite(r)) {
        throw std::invalid_argument(
            "write_taskgraph: rates must be finite and >= 0");
      }
    }
  }
  std::ostringstream os;
  write_impl(os, g, rates);
  return os.str();
}

TaskGraphFile reference_read_taskgraph_file(std::istream& is) {
  TaskGraphFile out;
  Dag& g = out.dag;
  std::map<std::string, TaskId> ids;
  std::string line;
  std::size_t line_no = 0;
  bool header_seen = false;
  int version = 0;

  while (std::getline(is, line)) {
    ++line_no;
    // Strip comments and surrounding whitespace.
    if (const auto hash = line.find('#'); hash != std::string::npos) {
      line.erase(hash);
    }
    std::istringstream ls(line);
    std::string word;
    if (!(ls >> word)) continue;  // blank line

    if (!header_seen) {
      if (word != "expmk-taskgraph" || !(ls >> version)) {
        parse_error(line_no, "expected header 'expmk-taskgraph <1|2>'");
      }
      if (version != 1 && version != 2) {
        parse_error(line_no,
                    "unsupported version " + std::to_string(version));
      }
      header_seen = true;
      continue;
    }

    if (word == "task") {
      std::string name;
      double weight = 0.0;
      if (!(ls >> name >> weight)) {
        parse_error(line_no, version == 2
                                 ? "expected 'task <name> <weight> <rate>'"
                                 : "expected 'task <name> <weight>'");
      }
      if (ids.count(name)) parse_error(line_no, "duplicate task '" + name + "'");
      if (weight < 0.0) parse_error(line_no, "negative weight");
      if (version == 2) {
        double rate = 0.0;
        if (!(ls >> rate)) {
          parse_error(line_no, "expected 'task <name> <weight> <rate>'");
        }
        if (!(rate >= 0.0) || !std::isfinite(rate)) {
          parse_error(line_no, "rate must be finite and >= 0");
        }
        out.rates.push_back(rate);
      }
      ids[name] = g.add_task(name, weight);
    } else if (word == "edge") {
      std::string from, to;
      if (!(ls >> from >> to)) {
        parse_error(line_no, "expected 'edge <from> <to>'");
      }
      const auto fi = ids.find(from);
      const auto ti = ids.find(to);
      if (fi == ids.end()) parse_error(line_no, "unknown task '" + from + "'");
      if (ti == ids.end()) parse_error(line_no, "unknown task '" + to + "'");
      if (fi->second == ti->second) parse_error(line_no, "self loop");
      g.add_edge(fi->second, ti->second);
    } else {
      parse_error(line_no, "unknown directive '" + word + "'");
    }
  }
  if (!header_seen) {
    throw std::invalid_argument("taskgraph parse error: empty input");
  }
  return out;
}

TaskGraphFile reference_taskgraph_file_from_string(const std::string& text) {
  std::istringstream is(text);
  return reference_read_taskgraph_file(is);
}

}  // namespace expmk::test
