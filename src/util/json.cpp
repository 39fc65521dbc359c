#include "util/json.hpp"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <stdexcept>

namespace expmk::util::json {

namespace {

[[noreturn]] void kind_error(const char* want) {
  throw std::logic_error(std::string("json::Value: not a ") + want);
}

}  // namespace

bool Value::as_bool() const {
  if (kind_ != Kind::Bool) kind_error("bool");
  return bool_;
}

double Value::as_double() const {
  if (kind_ != Kind::Number) kind_error("number");
  return num_;
}

std::uint64_t Value::as_u64() const {
  if (!is_u64()) kind_error("64-bit unsigned integer");
  return u64_;
}

const std::string& Value::as_string() const {
  if (kind_ != Kind::String) kind_error("string");
  return str_;
}

const Value* Value::find(std::string_view key) const noexcept {
  if (kind_ != Kind::Object) return nullptr;
  for (const auto& [k, v] : obj_) {
    if (k == key) return &v;
  }
  return nullptr;
}

/// Recursive-descent parser over a string_view. Private to the TU; the
/// public entry point is parse() below.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Value run() {
    Value v = value(0);
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after JSON value");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw std::invalid_argument("json parse error at byte " +
                                std::to_string(pos_) + ": " + what);
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (pos_ >= text_.size() || text_[pos_] != c) {
      fail(std::string("expected '") + c + "'");
    }
    ++pos_;
  }

  bool literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  Value value(std::size_t depth) {
    if (depth > kMaxDepth) fail("nesting deeper than kMaxDepth");
    skip_ws();
    const char c = peek();
    switch (c) {
      case '{':
        return object(depth);
      case '[':
        return array(depth);
      case '"': {
        Value v;
        v.kind_ = Value::Kind::String;
        v.str_ = string();
        return v;
      }
      case 't': {
        if (!literal("true")) fail("invalid literal");
        Value v;
        v.kind_ = Value::Kind::Bool;
        v.bool_ = true;
        return v;
      }
      case 'f': {
        if (!literal("false")) fail("invalid literal");
        Value v;
        v.kind_ = Value::Kind::Bool;
        v.bool_ = false;
        return v;
      }
      case 'n': {
        if (!literal("null")) fail("invalid literal");
        return Value{};
      }
      default:
        return number();
    }
  }

  Value object(std::size_t depth) {
    expect('{');
    Value v;
    v.kind_ = Value::Kind::Object;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    for (;;) {
      skip_ws();
      if (peek() != '"') fail("expected object key string");
      std::string key = string();
      skip_ws();
      expect(':');
      v.obj_.emplace_back(std::move(key), value(depth + 1));
      skip_ws();
      const char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == '}') {
        ++pos_;
        return v;
      }
      fail("expected ',' or '}' in object");
    }
  }

  Value array(std::size_t depth) {
    expect('[');
    Value v;
    v.kind_ = Value::Kind::Array;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    for (;;) {
      v.arr_.push_back(value(depth + 1));
      skip_ws();
      const char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == ']') {
        ++pos_;
        return v;
      }
      fail("expected ',' or ']' in array");
    }
  }

  std::string string() {
    expect('"');
    std::string out;
    for (;;) {
      // Copy the run up to the next quote, backslash or control character
      // with one append (an inline taskgraph is ~34 KB of such runs).
      const std::size_t run = pos_;
      while (pos_ < text_.size() && text_[pos_] != '"' &&
             text_[pos_] != '\\' &&
             static_cast<unsigned char>(text_[pos_]) >= 0x20) {
        ++pos_;
      }
      out.append(text_.data() + run, pos_ - run);
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') fail("raw control character in string");
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"':
          out += '"';
          break;
        case '\\':
          out += '\\';
          break;
        case '/':
          out += '/';
          break;
        case 'b':
          out += '\b';
          break;
        case 'f':
          out += '\f';
          break;
        case 'n':
          out += '\n';
          break;
        case 'r':
          out += '\r';
          break;
        case 't':
          out += '\t';
          break;
        case 'u': {
          unsigned cp = hex4();
          // Surrogate pair: a high surrogate must be followed by \uDC00-
          // \uDFFF; combine into the supplementary code point.
          if (cp >= 0xD800 && cp <= 0xDBFF) {
            if (!literal("\\u")) fail("unpaired surrogate");
            const unsigned lo = hex4();
            if (lo < 0xDC00 || lo > 0xDFFF) fail("invalid low surrogate");
            cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
          } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
            fail("unpaired low surrogate");
          }
          append_utf8(out, cp);
          break;
        }
        default:
          fail("unknown escape character");
      }
    }
  }

  unsigned hex4() {
    unsigned v = 0;
    for (int i = 0; i < 4; ++i) {
      if (pos_ >= text_.size()) fail("truncated \\u escape");
      const char c = text_[pos_++];
      v <<= 4;
      if (c >= '0' && c <= '9') {
        v |= static_cast<unsigned>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        v |= static_cast<unsigned>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        v |= static_cast<unsigned>(c - 'A' + 10);
      } else {
        fail("non-hex digit in \\u escape");
      }
    }
    return v;
  }

  static void append_utf8(std::string& out, unsigned cp) {
    if (cp < 0x80) {
      out += static_cast<char>(cp);
    } else if (cp < 0x800) {
      out += static_cast<char>(0xC0 | (cp >> 6));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else if (cp < 0x10000) {
      out += static_cast<char>(0xE0 | (cp >> 12));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else {
      out += static_cast<char>(0xF0 | (cp >> 18));
      out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    }
  }

  Value number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    bool integral = true;
    if (pos_ >= text_.size() || !is_digit(text_[pos_])) {
      pos_ = start;
      fail("invalid number");
    }
    // JSON forbids leading zeros ("01"); strtod would accept them.
    if (text_[pos_] == '0' && pos_ + 1 < text_.size() &&
        is_digit(text_[pos_ + 1])) {
      fail("leading zero in number");
    }
    while (pos_ < text_.size() && is_digit(text_[pos_])) ++pos_;
    if (pos_ < text_.size() && text_[pos_] == '.') {
      integral = false;
      ++pos_;
      if (pos_ >= text_.size() || !is_digit(text_[pos_])) {
        fail("digit expected after decimal point");
      }
      while (pos_ < text_.size() && is_digit(text_[pos_])) ++pos_;
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      integral = false;
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      if (pos_ >= text_.size() || !is_digit(text_[pos_])) {
        fail("digit expected in exponent");
      }
      while (pos_ < text_.size() && is_digit(text_[pos_])) ++pos_;
    }

    const std::string token(text_.substr(start, pos_ - start));
    Value v;
    v.kind_ = Value::Kind::Number;
    errno = 0;
    v.num_ = std::strtod(token.c_str(), nullptr);
    if (errno == ERANGE && !std::isfinite(v.num_)) {
      fail("number out of double range");
    }
    if (integral && token[0] != '-') {
      // Exact unsigned 64-bit view for protocol seeds/ids that must not
      // round through the double mantissa.
      errno = 0;
      char* end = nullptr;
      const unsigned long long u = std::strtoull(token.c_str(), &end, 10);
      if (errno == 0 && end != nullptr && *end == '\0') {
        v.has_u64_ = true;
        v.u64_ = static_cast<std::uint64_t>(u);
      }
    }
    return v;
  }

  static bool is_digit(char c) noexcept { return c >= '0' && c <= '9'; }

  std::string_view text_;
  std::size_t pos_ = 0;
};

Value parse(std::string_view text) { return Parser(text).run(); }

}  // namespace expmk::util::json
