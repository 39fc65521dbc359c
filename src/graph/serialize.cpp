#include "graph/serialize.hpp"

#include <charconv>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <istream>
#include <iterator>
#include <limits>
#include <ostream>
#include <stdexcept>
#include <system_error>
#include <vector>

namespace expmk::graph {

namespace {

// ------------------------------------------------------------- writer

/// Appends `v` as printf's "%.17g" (what an ostream at precision
/// max_digits10 prints), so every double round-trips bit-exactly.
void append_double(std::string& out, double v) {
  char buf[32];
  const auto end =
      std::to_chars(buf, buf + sizeof buf, v, std::chars_format::general,
                    std::numeric_limits<double>::max_digits10)
          .ptr;
  out.append(buf, end);
}

/// A task's name, or "t<id>" for an unnamed task.
void append_name(std::string& out, const Dag& g, TaskId id) {
  const std::string_view name = g.name(id);
  if (name.empty()) {
    char buf[16];
    out += 't';
    out.append(buf, std::to_chars(buf, buf + sizeof buf, id).ptr);
  } else {
    out += name;
  }
}

/// Shared writer; `rates` empty selects version 1 (the historical format,
/// byte-stable for graphs without rates).
std::string write_impl(const Dag& g, std::span<const double> rates) {
  const bool v2 = !rates.empty();
  std::string out;
  // Generated graphs run ~26-36 bytes per task line, ~26-28 per edge.
  out.reserve(32 + 40 * g.task_count() + 32 * g.edge_count());
  out += v2 ? "expmk-taskgraph 2\n" : "expmk-taskgraph 1\n";
  for (TaskId v = 0; v < g.task_count(); ++v) {
    out += "task ";
    append_name(out, g, v);
    out += ' ';
    append_double(out, g.weight(v));
    if (v2) {
      out += ' ';
      append_double(out, rates[v]);
    }
    out += '\n';
  }
  for (TaskId u = 0; u < g.task_count(); ++u) {
    for (const TaskId v : g.successors(u)) {
      out += "edge ";
      append_name(out, g, u);
      out += ' ';
      append_name(out, g, v);
      out += '\n';
    }
  }
  return out;
}

std::string checked_write(const Dag& g, std::span<const double> rates) {
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
  return write_impl(g, rates);
}

// ------------------------------------------------------------- reader

[[noreturn]] void parse_error(std::size_t line, std::string_view message) {
  throw std::invalid_argument("taskgraph parse error at line " +
                              std::to_string(line) + ": " +
                              std::string(message));
}

bool is_space(char c) noexcept {
  return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' ||
         c == '\r';
}

bool is_digit(char c) noexcept { return c >= '0' && c <= '9'; }

/// For a decimal number (sign already stripped) that from_chars found out
/// of double range: true when it overflows, false when it underflows to
/// zero. The decimal exponent of its leading nonzero digit decides.
bool overflows(std::string_view s) {
  long long lead = 0;
  bool found = false;
  bool dot = false;
  std::size_t i = 0;
  for (; i < s.size() && s[i] != 'e' && s[i] != 'E'; ++i) {
    if (s[i] == '.') {
      dot = true;
    } else if (!found) {
      if (dot) --lead;
      found = s[i] != '0';
    } else if (!dot) {
      ++lead;
    }
  }
  long long exponent = 0;
  bool negative = false;
  if (i < s.size()) {
    ++i;
    if (i < s.size() && (s[i] == '+' || s[i] == '-')) negative = s[i++] == '-';
    for (; i < s.size(); ++i) {
      // Saturate: past 10^9 the direction is already settled.
      if (exponent < 1'000'000'000) exponent = exponent * 10 + (s[i] - '0');
    }
  }
  return lead + (negative ? -exponent : exponent) > 0;
}

/// The rest of one comment-stripped line, read the way `>>` reads an
/// istringstream of it: tokens split on the whitespace set above, numbers
/// read as the longest prefix of the number grammar and left where they
/// stop (the rest of the token is what the next read sees).
class LineCursor {
 public:
  explicit LineCursor(std::string_view line) : rest_(line) {}

  /// The next token; empty at the end of the line.
  std::string_view word() {
    skip_space();
    std::size_t n = 0;
    while (n < rest_.size() && !is_space(rest_[n])) ++n;
    const std::string_view token = rest_.substr(0, n);
    rest_.remove_prefix(n);
    return token;
  }

  /// [+-]digits, range-checked into an int.
  bool integer(int& out) {
    skip_space();
    const bool plus = !rest_.empty() && rest_[0] == '+';
    std::size_t i = !rest_.empty() && (plus || rest_[0] == '-') ? 1 : 0;
    const std::size_t digits = i;
    while (i < rest_.size() && is_digit(rest_[i])) ++i;
    // from_chars takes a '-' but not a '+'.
    const char* first = rest_.data() + (plus ? 1 : 0);
    const char* last = rest_.data() + i;
    rest_.remove_prefix(i);
    if (i == digits) return false;
    return std::from_chars(first, last, out).ec == std::errc();
  }

  /// [+-] digits with at most one '.', then e|E [+-] digits; at least one
  /// mantissa digit, and at least one exponent digit once an 'e' follows
  /// the mantissa. Overflow fails; underflow reads as a signed zero.
  bool real(double& out) {
    skip_space();
    const bool plus = !rest_.empty() && rest_[0] == '+';
    std::size_t i = !rest_.empty() && (plus || rest_[0] == '-') ? 1 : 0;
    const std::size_t mantissa = i;
    bool dot = false;
    bool digits = false;
    for (; i < rest_.size(); ++i) {
      if (is_digit(rest_[i])) {
        digits = true;
      } else if (rest_[i] == '.' && !dot) {
        dot = true;
      } else {
        break;
      }
    }
    if (digits && i < rest_.size() && (rest_[i] == 'e' || rest_[i] == 'E')) {
      ++i;
      if (i < rest_.size() && (rest_[i] == '+' || rest_[i] == '-')) ++i;
      while (i < rest_.size() && is_digit(rest_[i])) ++i;
    }
    const std::string_view number = rest_.substr(0, i);
    rest_.remove_prefix(i);
    if (!digits) return false;
    const char* first = number.data() + (plus ? 1 : 0);
    const char* last = number.data() + number.size();
    const auto [end, ec] =
        std::from_chars(first, last, out, std::chars_format::general);
    // An 'e' with no exponent digits stops from_chars short of `last`.
    if (end != last) return false;
    if (ec == std::errc::result_out_of_range) {
      if (overflows(number.substr(mantissa))) return false;
      out = number.front() == '-' ? -0.0 : 0.0;
      return true;
    }
    return ec == std::errc();
  }

 private:
  void skip_space() {
    std::size_t n = 0;
    while (n < rest_.size() && is_space(rest_[n])) ++n;
    rest_.remove_prefix(n);
  }

  std::string_view rest_;
};

/// Name -> TaskId by open addressing: linear probing on an FNV-1a hash of
/// the name, keys viewed in the input text (which outlives the parse).
/// Never iterated, so nothing depends on the probe order.
class NameTable {
 public:
  NameTable() : slots_(256, kNoTask) {}

  /// The slot holding `name`, or the empty slot where it would go.
  [[nodiscard]] std::size_t find(std::string_view name) const {
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = static_cast<std::size_t>(fnv1a(name)) & mask;
    while (slots_[i] != kNoTask && keys_[slots_[i]] != name) {
      i = (i + 1) & mask;
    }
    return i;
  }

  [[nodiscard]] TaskId at(std::size_t slot) const { return slots_[slot]; }

  /// Stores the next task's name in the empty slot find() returned.
  void insert(std::size_t slot, std::string_view name) {
    slots_[slot] = static_cast<TaskId>(keys_.size());
    keys_.push_back(name);
    if (2 * keys_.size() > slots_.size()) {
      slots_.assign(2 * slots_.size(), kNoTask);
      for (TaskId id = 0; id < keys_.size(); ++id) slots_[find(keys_[id])] = id;
    }
  }

 private:
  static std::uint64_t fnv1a(std::string_view s) noexcept {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const char c : s) {
      h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
    }
    return h;
  }

  std::vector<TaskId> slots_;
  std::vector<std::string_view> keys_;  // by TaskId
};

}  // namespace

void write_taskgraph(std::ostream& os, const Dag& g) {
  const std::string text = write_impl(g, {});
  os.write(text.data(), static_cast<std::streamsize>(text.size()));
}

void write_taskgraph(std::ostream& os, const Dag& g,
                     std::span<const double> rates) {
  const std::string text = checked_write(g, rates);
  os.write(text.data(), static_cast<std::streamsize>(text.size()));
}

std::string to_taskgraph(const Dag& g) { return write_impl(g, {}); }

std::string to_taskgraph(const Dag& g, std::span<const double> rates) {
  return checked_write(g, rates);
}

TaskGraphFile taskgraph_file_from_string(std::string_view text) {
  TaskGraphFile out;
  Dag& g = out.dag;
  NameTable ids;
  std::size_t line_no = 0;
  bool header_seen = false;
  int version = 0;

  std::size_t pos = 0;
  while (pos < text.size()) {
    const std::size_t newline = text.find('\n', pos);
    const std::size_t end = newline == std::string_view::npos ? text.size()
                                                              : newline;
    const std::string_view raw = text.substr(pos, end - pos);
    LineCursor line(raw.substr(0, raw.find('#')));  // strip the comment
    pos = end + 1;
    ++line_no;
    const std::string_view word = line.word();
    if (word.empty()) continue;  // blank or comment-only line

    if (!header_seen) {
      if (word != "expmk-taskgraph" || !line.integer(version)) {
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
      const std::string_view name = line.word();
      double weight = 0.0;
      if (name.empty() || !line.real(weight)) {
        parse_error(line_no, version == 2
                                 ? "expected 'task <name> <weight> <rate>'"
                                 : "expected 'task <name> <weight>'");
      }
      const std::size_t slot = ids.find(name);
      if (ids.at(slot) != kNoTask) {
        parse_error(line_no, "duplicate task '" + std::string(name) + "'");
      }
      if (weight < 0.0) parse_error(line_no, "negative weight");
      if (version == 2) {
        double rate = 0.0;
        if (!line.real(rate)) {
          parse_error(line_no, "expected 'task <name> <weight> <rate>'");
        }
        if (!(rate >= 0.0) || !std::isfinite(rate)) {
          parse_error(line_no, "rate must be finite and >= 0");
        }
        out.rates.push_back(rate);
      }
      g.add_task(std::string(name), weight);
      ids.insert(slot, name);
    } else if (word == "edge") {
      const std::string_view from = line.word();
      const std::string_view to = line.word();
      if (to.empty()) parse_error(line_no, "expected 'edge <from> <to>'");
      const TaskId fi = ids.at(ids.find(from));
      const TaskId ti = ids.at(ids.find(to));
      if (fi == kNoTask) {
        parse_error(line_no, "unknown task '" + std::string(from) + "'");
      }
      if (ti == kNoTask) {
        parse_error(line_no, "unknown task '" + std::string(to) + "'");
      }
      if (fi == ti) parse_error(line_no, "self loop");
      g.add_edge(fi, ti);
    } else {
      parse_error(line_no, "unknown directive '" + std::string(word) + "'");
    }
  }
  if (!header_seen) {
    throw std::invalid_argument("taskgraph parse error: empty input");
  }
  return out;
}

Dag taskgraph_from_string(std::string_view text) {
  return taskgraph_file_from_string(text).dag;
}

void save_taskgraph(const std::string& path, const Dag& g) {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("cannot open for writing: " + path);
  write_taskgraph(os, g);
  if (!os) throw std::runtime_error("write failed: " + path);
}

void save_taskgraph(const std::string& path, const Dag& g,
                    std::span<const double> rates) {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("cannot open for writing: " + path);
  write_taskgraph(os, g, rates);
  if (!os) throw std::runtime_error("write failed: " + path);
}

Dag load_taskgraph(const std::string& path) {
  return load_taskgraph_file(path).dag;
}

TaskGraphFile load_taskgraph_file(const std::string& path) {
  std::ifstream is(path);
  if (!is) throw std::runtime_error("cannot open for reading: " + path);
  const std::string text(std::istreambuf_iterator<char>(is), {});
  return taskgraph_file_from_string(text);
}

}  // namespace expmk::graph
