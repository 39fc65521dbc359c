// tools/expmk-tidy/lite/expmk_tidy.hpp
//
// The dependency-free fallback implementation of the expmk contract
// checks — the same three checks the clang-tidy plugin
// (tools/expmk-tidy/plugin/) implements over the AST, expressed over a
// C++ token stream so they run on any toolchain, including containers
// and CI runners without clang dev headers. The plugin is the sound,
// AST-accurate implementation; this one is the always-available
// enforcement backstop wired into ctest (see tools/expmk-tidy/README.md
// for the precision differences).
//
// Checks:
//   expmk-no-alloc-kernel  EXPMK_NOALLOC function bodies must not
//                          allocate: no new/delete, no allocating
//                          container-growth member calls, every free
//                          callee annotated or allowlisted. Throw
//                          statements are exempt (cold failure path).
//   expmk-determinism      Inside src/: no rand()/random_device/wall-
//                          clock reads outside util/timer, no unordered
//                          containers, no reassociating floating-point
//                          reductions (std::reduce, execution policies,
//                          fast-math/reassociation pragmas).
//   expmk-lease-escape     A Workspace lease span must not outlive its
//                          frame: no returning a lease (or a subspan /
//                          data pointer of one), no storing one into a
//                          member, no capturing one in a closure that is
//                          itself returned or stored.
//
// Suppression: clang-tidy-style `// NOLINT(check)` on the diagnosed line
// or `// NOLINTNEXTLINE(check)` on the line above — but for expmk checks
// a justification is REQUIRED after a colon:
//     // NOLINT(expmk-no-alloc-kernel): capture path, caller opted in
// A bare NOLINT without justification does not suppress an expmk check.

#pragma once

#include <cstddef>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace expmk_tidy {

// ----------------------------------------------------------------- lexer

enum class TokKind { Ident, Number, String, CharLit, Punct, Comment, PP, End };

struct Token {
  TokKind kind = TokKind::End;
  std::string text;
  int line = 1;
  int col = 1;
};

/// Tokenizes C++ source. Comments and preprocessor directives are
/// returned as single tokens (a PP directive spans its backslash
/// continuations); string/char literals (including raw strings) are
/// opaque single tokens, so nothing inside literals or comments can fake
/// a code pattern.
std::vector<Token> lex(const std::string& source);

// --------------------------------------------------------------- structure

/// One function definition found by the structural pass.
struct FunctionDef {
  std::string name;        ///< unqualified name (last identifier before '(')
  bool annotated = false;  ///< decl-specifiers contain EXPMK_NOALLOC
  std::size_t decl_begin = 0;  ///< first code-token index of the declaration
  std::size_t body_begin = 0;  ///< code-token index just past the '{'
  std::size_t body_end = 0;    ///< code-token index of the matching '}'
};

/// A lexed file split into the streams the checks consume.
struct ParsedFile {
  std::string path;
  std::vector<Token> code;         ///< comments / PP directives stripped
  std::vector<Token> pp;           ///< preprocessor directives
  std::map<int, std::string> comments;  ///< line -> concatenated comments
  std::vector<FunctionDef> functions;
};

ParsedFile parse_file(std::string path, const std::string& source);

// ------------------------------------------------------------- diagnostics

struct Diagnostic {
  std::string path;
  int line = 1;
  int col = 1;
  std::string check;    ///< e.g. "expmk-no-alloc-kernel"
  std::string message;
};

/// `path:line:col: warning: message [check]`
std::string format(const Diagnostic& d);

// ---------------------------------------------------------------- analysis

struct Config {
  /// Checks to run (default: all three).
  std::set<std::string> checks = {"expmk-no-alloc-kernel",
                                  "expmk-determinism",
                                  "expmk-lease-escape"};
  /// expmk-determinism / expmk-lease-escape apply only to files whose
  /// path, read with a leading '/', contains this substring ("" = every
  /// input file); so the default matches both "/abs/repo/src/x.cpp" and
  /// the relative "src/x.cpp". The no-alloc check always applies: it is
  /// annotation-driven.
  std::string src_filter = "/src/";
  /// Extra allowlisted no-alloc callees (merged with the builtin set);
  /// loaded from tools/expmk-tidy/expmk-tidy.allow by the driver.
  std::set<std::string> extra_allow;
};

/// Runs the configured checks over the parsed files. Annotation
/// collection is global (pass 1 over every file), so a kernel may call an
/// EXPMK_NOALLOC function declared in another header. NOLINT suppression
/// (with the justification requirement) is applied before returning.
std::vector<Diagnostic> analyze(const std::vector<ParsedFile>& files,
                                const Config& config);

}  // namespace expmk_tidy
