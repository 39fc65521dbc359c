// util/json.hpp
//
// Minimal JSON *parser* — the read-side companion of util::JsonWriter —
// for the serving wire protocol (src/serve/), whose request frames are
// JSON objects. Strict grammar (RFC 8259: no trailing commas, no
// comments), recursive descent, throws std::invalid_argument with a byte
// offset on malformed input.
//
// Deliberate scope:
//  * Objects preserve insertion order in a vector of pairs — no
//    unordered_map (the expmk-determinism contract bans unordered
//    iteration) and no std::map (key order should be the sender's, so
//    diagnostics echo fields in the order they arrived).
//  * Numbers keep BOTH a double view and, when the literal is integral
//    and in range, an exact 64-bit view — a u64 seed like
//    0xFFFFFFFFFFFFFFFF must round-trip through the protocol without
//    falling into the double's 53-bit mantissa.
//  * Depth-limited (kMaxDepth) so a hostile frame cannot overflow the
//    stack with '[[[[...'.

#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace expmk::util::json {

/// One parsed JSON value; a tagged union over the seven JSON kinds.
class Value {
 public:
  enum class Kind { Null, Bool, Number, String, Array, Object };

  [[nodiscard]] Kind kind() const noexcept { return kind_; }
  [[nodiscard]] bool is_null() const noexcept { return kind_ == Kind::Null; }
  [[nodiscard]] bool is_bool() const noexcept { return kind_ == Kind::Bool; }
  [[nodiscard]] bool is_number() const noexcept {
    return kind_ == Kind::Number;
  }
  [[nodiscard]] bool is_string() const noexcept {
    return kind_ == Kind::String;
  }
  [[nodiscard]] bool is_object() const noexcept {
    return kind_ == Kind::Object;
  }

  /// Bool value; throws std::logic_error on kind mismatch.
  [[nodiscard]] bool as_bool() const;
  /// Numeric value as double (always available for numbers).
  [[nodiscard]] double as_double() const;
  /// Exact unsigned view. Valid only when the literal was a non-negative
  /// integer without fraction/exponent that fits in 64 bits (is_u64());
  /// throws std::logic_error otherwise.
  [[nodiscard]] std::uint64_t as_u64() const;
  [[nodiscard]] bool is_u64() const noexcept {
    return kind_ == Kind::Number && has_u64_;
  }
  [[nodiscard]] const std::string& as_string() const;

  /// Object member lookup (linear scan — protocol objects are small);
  /// nullptr when absent or when this value is not an object.
  [[nodiscard]] const Value* find(std::string_view key) const noexcept;

 private:
  friend class Parser;
  Kind kind_ = Kind::Null;
  bool bool_ = false;
  double num_ = 0.0;
  bool has_u64_ = false;
  std::uint64_t u64_ = 0;
  std::string str_;
  std::vector<Value> arr_;
  std::vector<std::pair<std::string, Value>> obj_;
};

/// Maximum nesting depth accepted by parse().
inline constexpr std::size_t kMaxDepth = 64;

/// Parses exactly one JSON value spanning the whole input (trailing
/// whitespace allowed, trailing garbage is an error). Throws
/// std::invalid_argument with a byte offset on malformed input.
[[nodiscard]] Value parse(std::string_view text);

}  // namespace expmk::util::json
