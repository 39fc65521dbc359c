#include "util/cli.hpp"

#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <stdexcept>

namespace expmk::util {

namespace {

/// stoll / stod that must consume the whole token: "4x6" or "0.5abc"
/// throws std::invalid_argument instead of reading a prefix.
std::int64_t whole_int(const std::string& s) {
  std::size_t pos = 0;
  const long long v = std::stoll(s, &pos);
  if (pos != s.size()) throw std::invalid_argument("trailing characters");
  return v;
}

double whole_double(const std::string& s) {
  std::size_t pos = 0;
  const double v = std::stod(s, &pos);
  if (pos != s.size()) throw std::invalid_argument("trailing characters");
  return v;
}

}  // namespace

Cli::Cli(std::string program, std::string description)
    : program_(std::move(program)), description_(std::move(description)) {}

void Cli::add_int(const std::string& name, std::int64_t def,
                  const std::string& help) {
  options_[name] = Option{Kind::Int, std::to_string(def), help};
}

void Cli::add_double(const std::string& name, double def,
                     const std::string& help) {
  std::ostringstream os;
  os << def;
  options_[name] = Option{Kind::Double, os.str(), help};
}

void Cli::add_string(const std::string& name, std::string def,
                     const std::string& help) {
  options_[name] = Option{Kind::String, std::move(def), help};
}

void Cli::add_flag(const std::string& name, const std::string& help) {
  options_[name] = Option{Kind::Flag, "0", help};
}

std::string Cli::usage() const {
  std::ostringstream os;
  os << program_ << " — " << description_ << "\n\nOptions:\n";
  for (const auto& [name, opt] : options_) {
    os << "  --" << name;
    switch (opt.kind) {
      case Kind::Int:    os << " <int>"; break;
      case Kind::Double: os << " <float>"; break;
      case Kind::String: os << " <str>"; break;
      case Kind::Flag:   break;
    }
    os << "\n      " << opt.help;
    if (opt.kind != Kind::Flag) os << " (default: " << opt.value << ")";
    os << "\n";
  }
  os << "  --help\n      show this message\n";
  return os.str();
}

void Cli::fail(const std::string& message) const {
  std::fprintf(stderr, "%s: %s\n\n%s", program_.c_str(), message.c_str(),
               usage().c_str());
  std::exit(2);
}

void Cli::parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::printf("%s", usage().c_str());
      std::exit(0);
    }
    if (arg.rfind("--", 0) != 0) fail("unexpected positional argument '" + arg + "'");
    arg.erase(0, 2);

    std::string name = arg;
    std::string value;
    bool has_value = false;
    if (const auto eq = arg.find('='); eq != std::string::npos) {
      name = arg.substr(0, eq);
      value = arg.substr(eq + 1);
      has_value = true;
    }

    const auto it = options_.find(name);
    if (it == options_.end()) fail("unknown option '--" + name + "'");
    Option& opt = it->second;

    if (opt.kind == Kind::Flag) {
      if (has_value) fail("flag '--" + name + "' does not take a value");
      opt.value = "1";
      continue;
    }
    if (!has_value) {
      if (i + 1 >= argc) fail("option '--" + name + "' expects a value");
      value = argv[++i];
    }
    // Validate eagerly so errors surface at parse time.
    try {
      if (opt.kind == Kind::Int) (void)whole_int(value);
      if (opt.kind == Kind::Double) (void)whole_double(value);
    } catch (const std::exception&) {
      fail("invalid value '" + value + "' for option '--" + name + "'");
    }
    opt.value = value;
  }
}

const Cli::Option& Cli::find(const std::string& name, Kind kind) const {
  const auto it = options_.find(name);
  if (it == options_.end() || it->second.kind != kind) {
    throw std::logic_error("Cli: option '" + name +
                           "' not registered with the requested type");
  }
  return it->second;
}

std::int64_t Cli::get_int(const std::string& name) const {
  return std::stoll(find(name, Kind::Int).value);
}

std::uint64_t Cli::get_count(const std::string& name) const {
  const std::int64_t v = get_int(name);
  if (v < 0) fail("--" + name + " must be >= 0");
  return static_cast<std::uint64_t>(v);
}

double Cli::get_double(const std::string& name) const {
  return std::stod(find(name, Kind::Double).value);
}

const std::string& Cli::get_string(const std::string& name) const {
  return find(name, Kind::String).value;
}

bool Cli::get_flag(const std::string& name) const {
  return find(name, Kind::Flag).value == "1";
}

std::vector<std::string> Cli::get_list(const std::string& name) const {
  std::vector<std::string> out;
  std::istringstream is(get_string(name));
  for (std::string item; std::getline(is, item, ',');) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

std::vector<int> Cli::get_ints(const std::string& name) const {
  std::vector<int> out;
  for (const std::string& s : get_list(name)) {
    try {
      const std::int64_t v = whole_int(s);
      if (v != static_cast<int>(v)) throw std::out_of_range(s);
      out.push_back(static_cast<int>(v));
    } catch (const std::exception&) {
      fail("invalid integer '" + s + "' in '--" + name + "'");
    }
  }
  return out;
}

std::vector<double> Cli::get_doubles(const std::string& name) const {
  std::vector<double> out;
  for (const std::string& s : get_list(name)) {
    try {
      out.push_back(whole_double(s));
    } catch (const std::exception&) {
      fail("invalid number '" + s + "' in '--" + name + "'");
    }
  }
  return out;
}

}  // namespace expmk::util
