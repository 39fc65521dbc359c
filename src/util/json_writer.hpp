// util/json_writer.hpp
//
// Minimal machine-readable JSON emitter for experiment/bench artifacts
// (BENCH_corpus.json, the sweep subsystem's sweep.json): objects of numbers,
// strings and booleans, nestable objects and arrays of objects — enough
// for artifact tracking across PRs without dragging in a JSON dependency.
// Doubles are printed with 17 significant digits so bit-level comparisons
// survive the round trip; non-finite doubles map to null (JSON has no
// inf/nan literals).

#pragma once

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

namespace expmk::util {

class JsonWriter {
 public:
  JsonWriter& field(const std::string& key, double value) {
    // JSON has no inf/nan literals; map them to null so the file stays
    // machine-readable even if a value degenerates.
    if (!std::isfinite(value)) return raw(key, "null");
    std::ostringstream os;
    os.precision(17);
    os << value;
    return raw(key, os.str());
  }
  /// Any integer type (int, std::size_t, std::uint64_t, ...) — a template
  /// so size_t stays unambiguous on platforms where it isn't uint64_t.
  template <typename T>
    requires(std::is_integral_v<T> && !std::is_same_v<T, bool>)
  JsonWriter& field(const std::string& key, T value) {
    return raw(key, std::to_string(value));
  }
  JsonWriter& field(const std::string& key, bool value) {
    return raw(key, value ? "true" : "false");
  }
  JsonWriter& field(const std::string& key, const std::string& value) {
    return raw(key, quote(value));
  }
  /// Without this overload a string literal would take the pointer-to-bool
  /// conversion and silently emit `true`.
  JsonWriter& field(const std::string& key, const char* value) {
    return raw(key, quote(value));
  }
  /// Nests a completed object under `key`.
  JsonWriter& object(const std::string& key, const JsonWriter& nested) {
    return raw(key, nested.str());
  }
  /// Nests an array of completed objects under `key`.
  JsonWriter& array(const std::string& key,
                    const std::vector<JsonWriter>& items) {
    std::string out = "[";
    for (std::size_t i = 0; i < items.size(); ++i) {
      if (i != 0) out += ", ";
      out += items[i].str();
    }
    out += "]";
    return raw(key, out);
  }

  [[nodiscard]] std::string str() const {
    std::string out = "{";
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      if (i != 0) out += ", ";
      out += entries_[i];
    }
    out += "}";
    return out;
  }

  /// Writes the object to `path` (overwriting), newline-terminated.
  void write_file(const std::string& path) const {
    std::ofstream f(path);
    f << str() << "\n";
  }

 private:
  static std::string quote(const std::string& value) {
    std::string out = "\"";
    for (const char c : value) {
      if (c == '"' || c == '\\') {
        out += '\\';
        out += c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        // Control characters are not legal raw in JSON strings.
        char buf[8];
        std::snprintf(buf, sizeof buf, "\\u%04x",
                      static_cast<unsigned>(static_cast<unsigned char>(c)));
        out += buf;
      } else {
        out += c;
      }
    }
    out += '"';
    return out;
  }
  JsonWriter& raw(const std::string& key, const std::string& rendered) {
    entries_.push_back(quote(key) + ": " + rendered);
    return *this;
  }
  std::vector<std::string> entries_;
};

}  // namespace expmk::util
