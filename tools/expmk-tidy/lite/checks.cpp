// The three expmk contract checks over the token stream, plus the
// NOLINT-with-justification suppression filter. See expmk_tidy.hpp for
// the check semantics and tools/expmk-tidy/README.md for the precision
// trade-offs vs the clang-tidy plugin.

#include "expmk_tidy.hpp"

#include <algorithm>

namespace expmk_tidy {

namespace {

// ------------------------------------------------------------- shared sets

/// Keywords that make `kw(...)` a non-call (control flow, casts, traits).
bool stmt_like(const std::string& t) {
  static const std::set<std::string> kw = {
      "return", "co_return", "throw", "new", "delete", "else",
      "do",     "goto",      "case",
  };
  return kw.count(t) > 0;
}

bool non_callee_keyword(const std::string& t) {
  static const std::set<std::string> kw = {
      "if",       "for",       "while",    "switch",   "catch",
      "sizeof",   "alignof",   "alignas",  "decltype", "noexcept",
      "static_assert", "assert", "typeid",  "requires", "asm",
      "__attribute__", "__declspec",
      "void",     "int",       "double",   "float",    "bool",
      "char",     "long",      "short",    "unsigned", "signed",
      "auto",     "operator",
  };
  return kw.count(t) > 0;
}

/// Known non-allocating free functions / constructor-casts: std math,
/// raw-memory ops, in-place algorithms, fundamental-type casts. Anything
/// not here and not EXPMK_NOALLOC is diagnosed — the conservative default
/// that forces annotations down the call tree.
const std::set<std::string>& builtin_allow() {
  static const std::set<std::string> allow = {
      // math
      "abs", "fabs", "sqrt", "cbrt", "log", "log2", "log10", "log1p",
      "exp", "exp2", "expm1", "pow", "fmod", "fma", "floor", "ceil",
      "round", "trunc", "lround", "llround", "nearbyint", "copysign",
      "signbit", "isnan", "isinf", "isfinite", "hypot", "erf", "erfc",
      "lgamma", "tgamma", "sin", "cos", "tan", "asin", "acos", "atan",
      "atan2", "sinh", "cosh", "tanh", "ldexp", "frexp", "modf",
      "nextafter", "fdim", "fmax", "fmin",
      // <algorithm>/<numeric>, in-place only (NOT stable_sort or
      // inplace_merge, which may allocate a temporary buffer)
      "min", "max", "clamp", "minmax", "min_element", "max_element",
      "minmax_element", "sort", "nth_element", "partial_sort",
      "lower_bound", "upper_bound", "equal_range", "binary_search",
      "fill", "fill_n", "copy", "copy_n", "copy_backward", "find",
      "find_if", "count", "count_if", "accumulate", "inner_product",
      "partial_sum", "iota", "reverse", "rotate", "unique", "remove",
      "remove_if", "swap_ranges", "equal", "lexicographical_compare",
      "push_heap", "pop_heap", "make_heap", "sort_heap", "midpoint",
      "lerp", "gcd", "lcm", "distance", "advance", "next", "prev",
      "all_of", "any_of", "none_of", "for_each", "transform",
      "exchange",
      // utility / raw memory
      "move", "forward", "swap", "get", "tie", "as_const", "addressof",
      "to_underlying", "declval", "memcpy", "memmove", "memset",
      "memcmp", "strlen", "launder", "assume_aligned", "bit_cast",
      // numeric_limits observers
      "quiet_NaN", "infinity", "epsilon", "lowest", "denorm_min",
      "signaling_NaN", "round_error",
      // fundamental-type constructor casts and std integer aliases
      "size_t", "ptrdiff_t", "int8_t", "int16_t", "int32_t", "int64_t",
      "uint8_t", "uint16_t", "uint32_t", "uint64_t", "uintptr_t",
      "intptr_t", "ssize",
  };
  return allow;
}

/// Container members that (re)allocate. A member call not on this list is
/// presumed non-allocating (accessors) — the documented unsoundness the
/// AST plugin closes.
bool allocating_member(const std::string& m) {
  static const std::set<std::string> deny = {
      "push_back", "emplace_back", "emplace", "push_front",
      "emplace_front", "insert", "insert_or_assign", "try_emplace",
      "resize", "reserve", "assign", "append", "substr",
      "shrink_to_fit", "merge", "splice",
  };
  return deny.count(m) > 0;
}

/// Types whose construction (or converting assignment) heap-allocates.
/// Any appearance inside an EXPMK_NOALLOC body is diagnosed — kernels
/// deal in spans and PODs, so the names simply should not occur.
/// (`std::set`/`std::array` are omitted: `set`/`array` are too generic
/// for a token match; the AST plugin covers those.)
bool allocating_type(const std::string& t) {
  static const std::set<std::string> deny = {
      "vector", "basic_string", "string", "deque", "list", "map",
      "multimap", "multiset", "function", "unique_ptr", "shared_ptr",
      "make_unique", "make_shared", "to_string", "stringstream",
      "ostringstream", "istringstream", "stoi", "stod", "stoul",
      "DiscreteDistribution",
  };
  return deny.count(t) > 0;
}

/// Workspace lease methods (exp/workspace.hpp) on a receiver named like a
/// workspace. Keeping the receiver-name set tight avoids false-aliasing
/// with unrelated members named `atoms`/`ints`.
bool lease_method(const std::string& m) {
  static const std::set<std::string> leases = {"doubles", "u32",   "u64",
                                               "moments", "ints", "atoms"};
  return leases.count(m) > 0;
}
bool workspace_receiver(const std::string& r) {
  return r == "ws" || r == "workspace" || r == "ws_" ||
         (r.size() > 3 && r.compare(r.size() - 3, 3, "_ws") == 0);
}

/// Span members whose result aliases the lease storage.
bool aliasing_member(const std::string& m) {
  return m == "subspan" || m == "first" || m == "last" || m == "data";
}

bool ends_with_underscore(const std::string& s) {
  return !s.empty() && s.back() == '_';
}

// ------------------------------------------------------------ check bodies

void check_noalloc(const ParsedFile& f, const std::set<std::string>& annotated,
                   const std::set<std::string>& allow,
                   std::vector<Diagnostic>& diags) {
  for (const FunctionDef& fn : f.functions) {
    if (!fn.annotated || fn.body_begin >= fn.body_end) continue;
    // Local callable bindings (`auto name = [..] ...`): calls through the
    // name are fine — the lambda body sits inside this annotated body and
    // is scanned in place.
    std::set<std::string> local_callables;
    for (std::size_t i = fn.body_begin; i + 2 < fn.body_end; ++i) {
      if (f.code[i].kind == TokKind::Ident && f.code[i + 1].text == "=" &&
          f.code[i + 2].text == "[") {
        local_callables.insert(f.code[i].text);
      }
    }
    for (std::size_t i = fn.body_begin; i < fn.body_end; ++i) {
      const Token& t = f.code[i];
      if (t.kind != TokKind::Ident) continue;
      if (t.text == "throw") {
        // Cold failure path: allocation inside a throw-expression aborts
        // the evaluation and is exempt from the steady-state contract.
        int depth = 0;
        while (i < fn.body_end &&
               !(f.code[i].text == ";" && depth == 0)) {
          if (f.code[i].text == "(") ++depth;
          if (f.code[i].text == ")") --depth;
          ++i;
        }
        continue;
      }
      if (t.text == "new" || t.text == "delete") {
        diags.push_back({f.path, t.line, t.col, "expmk-no-alloc-kernel",
                         "'" + t.text +
                             "' expression in an EXPMK_NOALLOC kernel"});
        continue;
      }
      if (allocating_type(t.text)) {
        diags.push_back({f.path, t.line, t.col, "expmk-no-alloc-kernel",
                         "allocating type '" + t.text +
                             "' in an EXPMK_NOALLOC kernel"});
        continue;
      }
      const bool is_call = i + 1 < fn.body_end && f.code[i + 1].text == "(";
      if (!is_call) continue;
      const Token* prev = i > fn.body_begin ? &f.code[i - 1] : nullptr;
      const bool member = prev && (prev->text == "." || prev->text == "->");
      if (member) {
        if (allocating_member(t.text)) {
          diags.push_back({f.path, t.line, t.col, "expmk-no-alloc-kernel",
                           "allocating container call '" + t.text +
                               "' in an EXPMK_NOALLOC kernel"});
        }
        continue;
      }
      if (non_callee_keyword(t.text) || stmt_like(t.text)) continue;
      // Declaration heuristic: `Type name(args)` — the name is preceded by
      // another identifier or a type-ish closer, not an operator.
      if (prev && ((prev->kind == TokKind::Ident && !stmt_like(prev->text) &&
                    prev->text != "EXPMK_NOALLOC") ||
                   prev->text == ">" || prev->text == "*" ||
                   prev->text == "&")) {
        continue;
      }
      if (annotated.count(t.text) || allow.count(t.text) ||
          local_callables.count(t.text)) {
        continue;
      }
      // SIMD intrinsics and compiler builtins never touch the heap.
      if (t.text.rfind("_mm", 0) == 0 || t.text.rfind("__builtin", 0) == 0) {
        continue;
      }
      diags.push_back({f.path, t.line, t.col, "expmk-no-alloc-kernel",
                       "call to '" + t.text +
                           "' which is neither EXPMK_NOALLOC nor on the "
                           "no-alloc allowlist"});
    }
  }
}

void check_determinism(const ParsedFile& f, std::vector<Diagnostic>& diags) {
  const bool is_timer_file =
      f.path.find("util/timer") != std::string::npos;
  auto diag = [&](const Token& t, const std::string& msg) {
    diags.push_back({f.path, t.line, t.col, "expmk-determinism", msg});
  };
  for (std::size_t i = 0; i < f.code.size(); ++i) {
    const Token& t = f.code[i];
    if (t.kind != TokKind::Ident) continue;
    const bool call = i + 1 < f.code.size() && f.code[i + 1].text == "(";
    const Token* prev = i > 0 ? &f.code[i - 1] : nullptr;
    const bool qualified = prev && prev->text == "::";
    const bool member = prev && (prev->text == "." || prev->text == "->");
    if (call && (t.text == "rand" || t.text == "srand" ||
                 t.text == "drand48" || t.text == "random_shuffle")) {
      diag(t, "'" + t.text +
                  "' is nondeterministic; draw from the seeded engine RNG "
                  "(prob::McRng) instead");
      continue;
    }
    if (t.text == "random_device") {
      diag(t, "std::random_device breaks run-to-run reproducibility; seeds "
              "must come from EvalOptions::seed");
      continue;
    }
    if (t.text == "system_clock") {
      diag(t, "wall-clock source; timing belongs in the `seconds` fields "
              "via util::Timer (steady_clock)");
      continue;
    }
    if (call && t.text == "now" && !is_timer_file) {
      diag(t, "clock read outside util/timer — wall-clock reads are "
              "reserved for the `seconds` timing fields");
      continue;
    }
    if (call && (t.text == "gettimeofday" || t.text == "clock_gettime")) {
      diag(t, "'" + t.text + "' is a wall-clock read; use util::Timer");
      continue;
    }
    if (call && (t.text == "time" || t.text == "clock") && !member &&
        (prev == nullptr || prev->kind != TokKind::Ident)) {
      diag(t, "'" + t.text + "(...)' is a wall-clock read; use util::Timer");
      continue;
    }
    if (t.text == "unordered_map" || t.text == "unordered_set" ||
        t.text == "unordered_multimap" || t.text == "unordered_multiset") {
      diag(t, "unordered container in the deterministic core — iteration "
              "order is unspecified and must not feed result values; use a "
              "sorted container or justify with NOLINT");
      continue;
    }
    if (call && qualified &&
        (t.text == "reduce" || t.text == "transform_reduce")) {
      diag(t, "std::" + t.text +
                  " reassociates the accumulation; results must keep the "
                  "fixed accumulator order (see the 4-accumulator contract "
                  "in prob/dist_kernels.hpp)");
      continue;
    }
    if (qualified && t.text == "execution") {
      diag(t, "std::execution policies may reassociate reductions and "
              "break bit-identity across runs");
      continue;
    }
  }
  for (const Token& pp : f.pp) {
    const std::string& s = pp.text;
    const bool reassoc =
        s.find("fast-math") != std::string::npos ||
        s.find("reassociate") != std::string::npos ||
        (s.find("fp_contract") != std::string::npos &&
         s.find("fast") != std::string::npos) ||
        (s.find("fp contract") != std::string::npos &&
         s.find("fast") != std::string::npos) ||
        (s.find("omp") != std::string::npos &&
         s.find("reduction") != std::string::npos) ||
        (s.find("GCC optimize") != std::string::npos);
    if (reassoc) {
      diags.push_back({f.path, pp.line, pp.col, "expmk-determinism",
                       "pragma enables floating-point reassociation or an "
                       "unordered reduction — breaks the fixed-accumulator "
                       "bit-identity contract"});
    }
  }
}

void check_lease_escape(const ParsedFile& f, std::vector<Diagnostic>& diags) {
  auto diag = [&](const Token& t, const std::string& msg) {
    diags.push_back({f.path, t.line, t.col, "expmk-lease-escape", msg});
  };
  for (const FunctionDef& fn : f.functions) {
    if (fn.body_begin >= fn.body_end) continue;

    // Pass 1: names bound (or rebound) to a workspace lease.
    std::set<std::string> leases;
    for (std::size_t i = fn.body_begin; i + 3 < fn.body_end; ++i) {
      if (f.code[i].kind == TokKind::Ident &&
          workspace_receiver(f.code[i].text) && f.code[i + 1].text == "." &&
          lease_method(f.code[i + 2].text) && f.code[i + 3].text == "(") {
        // Walk back over the initializer to `name =`.
        for (std::size_t back = 1; back <= 8 && i >= fn.body_begin + back;
             ++back) {
          const Token& eq = f.code[i - back];
          if (eq.text == ";" || eq.text == "{" || eq.text == "}") break;
          if (eq.text == "=" && i >= fn.body_begin + back + 1) {
            const Token& var = f.code[i - back - 1];
            if (var.kind == TokKind::Ident) leases.insert(var.text);
            break;
          }
        }
      }
    }

    auto is_direct_lease = [&](std::size_t i) {
      return f.code[i].kind == TokKind::Ident &&
             workspace_receiver(f.code[i].text) &&
             i + 3 < fn.body_end && f.code[i + 1].text == "." &&
             lease_method(f.code[i + 2].text) && f.code[i + 3].text == "(";
    };
    /// Lease identifier used as a span value (not an element read):
    /// `v;` `v,` `v)` or `v.subspan/first/last/data(...)`.
    auto escapes_at = [&](std::size_t i) {
      if (f.code[i].kind != TokKind::Ident || !leases.count(f.code[i].text))
        return false;
      if (i + 1 >= fn.body_end) return false;
      const std::string& nxt = f.code[i + 1].text;
      if (nxt == ";" || nxt == "," || nxt == ")") return true;
      return nxt == "." && i + 2 < fn.body_end &&
             aliasing_member(f.code[i + 2].text);
    };

    // Pass 2: escapes.
    for (std::size_t i = fn.body_begin; i < fn.body_end; ++i) {
      const Token& t = f.code[i];
      // return <lease...>; / return ws.doubles(...);
      if (t.kind == TokKind::Ident && t.text == "return" &&
          i + 1 < fn.body_end) {
        const std::size_t e = i + 1;
        if (f.code[e].kind == TokKind::Ident && leases.count(f.code[e].text) &&
            escapes_at(e)) {
          diag(f.code[e], "workspace lease '" + f.code[e].text +
                              "' returned from its frame scope — the span "
                              "dangles once the Workspace::Frame closes");
          continue;
        }
        if (is_direct_lease(e)) {
          diag(f.code[e], "workspace lease returned from its frame scope — "
                          "the span dangles once the Workspace::Frame "
                          "closes");
          continue;
        }
      }
      // member_ = <lease> / this->member = <lease>
      if (t.text == "=" && i > fn.body_begin) {
        const Token& lhs = f.code[i - 1];
        const bool this_member =
            i >= fn.body_begin + 3 && f.code[i - 2].text == "->" &&
            f.code[i - 3].text == "this";
        const bool named_member =
            lhs.kind == TokKind::Ident && ends_with_underscore(lhs.text) &&
            (i < fn.body_begin + 2 ||
             (f.code[i - 2].text != "." && f.code[i - 2].text != "->"));
        if ((this_member || named_member) && lhs.kind == TokKind::Ident) {
          for (std::size_t j = i + 1;
               j < fn.body_end && f.code[j].text != ";"; ++j) {
            if (escapes_at(j) || is_direct_lease(j)) {
              diag(lhs, "workspace lease stored into member '" + lhs.text +
                            "' — members outlive the Workspace::Frame the "
                            "lease belongs to");
              break;
            }
          }
        }
      }
      // Escaping closure capturing a lease.
      if (t.text == "[" && i > fn.body_begin) {
        const Token& before = f.code[i - 1];
        const bool expr_pos = before.text == "=" || before.text == "(" ||
                              before.text == "," || before.text == "{" ||
                              before.text == ";" || before.text == "return";
        if (!expr_pos) continue;
        // Find the matching ']' and require a lambda shape after it.
        std::size_t close = i + 1;
        int bdepth = 1;
        while (close < fn.body_end && bdepth > 0) {
          if (f.code[close].text == "[") ++bdepth;
          if (f.code[close].text == "]") --bdepth;
          ++close;
        }
        if (close >= fn.body_end) continue;
        const std::string& after = f.code[close].text;
        if (after != "(" && after != "{" && after != "mutable" &&
            after != "->") {
          continue;
        }
        bool default_capture = false;
        bool captures_lease = false;
        for (std::size_t j = i + 1; j + 1 < close; ++j) {
          if (f.code[j].text == "&" || f.code[j].text == "=")
            default_capture = true;
          if (f.code[j].kind == TokKind::Ident &&
              leases.count(f.code[j].text)) {
            captures_lease = true;
          }
        }
        // Escaping context: returned, stored into a member, or bound to a
        // std::function variable.
        bool escaping = before.text == "return";
        if (before.text == "=" && i >= fn.body_begin + 2) {
          const Token& lhs = f.code[i - 2];
          if (lhs.kind == TokKind::Ident &&
              (ends_with_underscore(lhs.text) ||
               (i >= fn.body_begin + 3 && f.code[i - 3].text == "->" &&
                f.code[i - 4].text == "this"))) {
            escaping = true;
          }
          for (std::size_t back = 2; back <= 10 && i >= fn.body_begin + back;
               ++back) {
            const Token& ty = f.code[i - back];
            if (ty.text == ";" || ty.text == "{" || ty.text == "}") break;
            if (ty.kind == TokKind::Ident && ty.text == "function") {
              escaping = true;
              break;
            }
          }
        }
        if (!escaping) continue;
        if (!captures_lease && default_capture) {
          // Default capture: scan the lambda body for lease references.
          std::size_t body = close;
          while (body < fn.body_end && f.code[body].text != "{") ++body;
          int depth = 0;
          for (std::size_t j = body; j < fn.body_end; ++j) {
            if (f.code[j].text == "{") ++depth;
            if (f.code[j].text == "}") {
              if (--depth == 0) break;
            }
            if (f.code[j].kind == TokKind::Ident &&
                leases.count(f.code[j].text)) {
              captures_lease = true;
              break;
            }
          }
        }
        if (captures_lease) {
          diag(t, "workspace lease captured by a closure that escapes its "
                  "frame scope (returned / stored) — the span dangles when "
                  "the closure runs");
        }
      }
    }
  }
}

// ------------------------------------------------------------- suppression

/// Parses NOLINT / NOLINTNEXTLINE markers in `comment`. Returns true when
/// `check` is suppressed; expmk checks additionally REQUIRE a non-empty
/// justification after a ':' following the marker (else the suppression
/// is ignored).
bool comment_suppresses(const std::string& comment, const std::string& check,
                        bool nextline_only) {
  std::size_t pos = 0;
  while ((pos = comment.find("NOLINT", pos)) != std::string::npos) {
    std::size_t p = pos + 6;
    const bool is_nextline = comment.compare(pos, 14, "NOLINTNEXTLINE") == 0;
    if (is_nextline) p = pos + 14;
    if (nextline_only != is_nextline) {
      pos = p;
      continue;
    }
    bool applies = true;  // bare NOLINT applies to every check
    if (p < comment.size() && comment[p] == '(') {
      const std::size_t close = comment.find(')', p);
      if (close == std::string::npos) {
        pos = p;
        continue;
      }
      const std::string list = comment.substr(p + 1, close - p - 1);
      applies = false;
      std::size_t start = 0;
      while (start <= list.size()) {
        std::size_t comma = list.find(',', start);
        if (comma == std::string::npos) comma = list.size();
        std::string entry = list.substr(start, comma - start);
        entry.erase(0, entry.find_first_not_of(" \t"));
        entry.erase(entry.find_last_not_of(" \t") + 1);
        if (entry == check ||
            (!entry.empty() && entry.back() == '*' &&
             check.compare(0, entry.size() - 1, entry, 0,
                           entry.size() - 1) == 0)) {
          applies = true;
          break;
        }
        start = comma + 1;
      }
      p = close + 1;
    }
    if (applies) {
      if (check.rfind("expmk-", 0) == 0) {
        // Justification required: ':' then non-space text.
        std::size_t q = p;
        while (q < comment.size() && (comment[q] == ' ' || comment[q] == '\t'))
          ++q;
        if (q >= comment.size() || comment[q] != ':') {
          pos = p;
          continue;  // unjustified — does not suppress an expmk check
        }
        ++q;
        while (q < comment.size() && (comment[q] == ' ' || comment[q] == '\t'))
          ++q;
        if (q >= comment.size()) {
          pos = p;
          continue;
        }
      }
      return true;
    }
    pos = p;
  }
  return false;
}

bool suppressed(const ParsedFile& f, const Diagnostic& d) {
  auto same = f.comments.find(d.line);
  if (same != f.comments.end() &&
      comment_suppresses(same->second, d.check, /*nextline_only=*/false)) {
    return true;
  }
  auto above = f.comments.find(d.line - 1);
  return above != f.comments.end() &&
         comment_suppresses(above->second, d.check, /*nextline_only=*/true);
}

}  // namespace

std::vector<Diagnostic> analyze(const std::vector<ParsedFile>& files,
                                const Config& config) {
  std::set<std::string> annotated;
  for (const ParsedFile& f : files) {
    for (const FunctionDef& fn : f.functions) {
      if (fn.annotated) annotated.insert(fn.name);
    }
  }
  std::set<std::string> allow = builtin_allow();
  allow.insert(config.extra_allow.begin(), config.extra_allow.end());

  std::vector<Diagnostic> diags;
  for (const ParsedFile& f : files) {
    // A leading '/' lets a relative path that starts at the filtered
    // component ("src/util/x.cpp", from `expmk-tidy src`) match "/src/".
    const bool is_src =
        config.src_filter.empty() ||
        ("/" + f.path).find(config.src_filter) != std::string::npos;
    if (config.checks.count("expmk-no-alloc-kernel")) {
      check_noalloc(f, annotated, allow, diags);
    }
    if (is_src && config.checks.count("expmk-determinism")) {
      check_determinism(f, diags);
    }
    if (is_src && config.checks.count("expmk-lease-escape")) {
      check_lease_escape(f, diags);
    }
  }

  std::vector<Diagnostic> kept;
  for (const Diagnostic& d : diags) {
    const auto file = std::find_if(
        files.begin(), files.end(),
        [&](const ParsedFile& f) { return f.path == d.path; });
    if (file != files.end() && suppressed(*file, d)) continue;
    kept.push_back(d);
  }
  std::sort(kept.begin(), kept.end(),
            [](const Diagnostic& a, const Diagnostic& b) {
              if (a.path != b.path) return a.path < b.path;
              if (a.line != b.line) return a.line < b.line;
              return a.col < b.col;
            });
  return kept;
}

}  // namespace expmk_tidy
