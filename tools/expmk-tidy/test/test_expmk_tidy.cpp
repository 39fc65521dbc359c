// Tests for the expmk-tidy fallback checker: fixture files with
// `// EXPECT: <check>` markers pin exactly where each check must fire
// (and, on the *_negative fixtures, that it stays silent), and unit
// tests cover the lexer's literal-safety and the NOLINT justification
// contract. The same fixtures serve as documentation of each check's
// rules — see tools/expmk-tidy/README.md.

#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "expmk_tidy.hpp"

namespace fs = std::filesystem;
using expmk_tidy::Config;
using expmk_tidy::Diagnostic;
using expmk_tidy::ParsedFile;

namespace {

std::string read_file(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// (line, check) -> expected/actual diagnostic count.
using DiagMap = std::map<std::pair<int, std::string>, int>;

DiagMap parse_expectations(const std::string& source) {
  DiagMap expected;
  std::istringstream in(source);
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    std::size_t pos = line.find("EXPECT:");
    if (pos == std::string::npos) continue;
    std::istringstream checks(line.substr(pos + 7));
    std::string check;
    while (checks >> check) ++expected[{lineno, check}];
  }
  return expected;
}

/// Analyzes the fixture at `path` as if it lived at `as_path`, under the
/// default configuration (the driver's `--src-filter "/src/"`).
DiagMap run_fixture_as(const fs::path& path, const std::string& as_path,
                       const Config& config = Config{}) {
  std::vector<ParsedFile> files;
  files.push_back(expmk_tidy::parse_file(as_path, read_file(path)));
  DiagMap actual;
  for (const Diagnostic& d : expmk_tidy::analyze(files, config)) {
    ++actual[{d.line, d.check}];
  }
  return actual;
}

DiagMap run_fixture(const fs::path& path) {
  Config config;
  config.src_filter = "";  // fixtures live outside src/
  return run_fixture_as(path, path.generic_string(), config);
}

std::string describe(const DiagMap& m) {
  std::ostringstream ss;
  for (const auto& [key, count] : m) {
    ss << "  line " << key.first << ": " << key.second << " x" << count
       << "\n";
  }
  return ss.str().empty() ? "  (none)\n" : ss.str();
}

void expect_fixture_matches(const std::string& name) {
  const fs::path path = fs::path(EXPMK_TIDY_FIXTURE_DIR) / name;
  ASSERT_TRUE(fs::exists(path)) << path;
  const DiagMap expected = parse_expectations(read_file(path));
  const DiagMap actual = run_fixture(path);
  EXPECT_EQ(expected, actual) << "expected:\n"
                              << describe(expected) << "actual:\n"
                              << describe(actual);
}

// ------------------------------------------------------------- fixtures

TEST(ExpmkTidyFixtures, NoAllocPositive) {
  expect_fixture_matches("noalloc_positive.cpp");
}
TEST(ExpmkTidyFixtures, NoAllocNegative) {
  expect_fixture_matches("noalloc_negative.cpp");
}
TEST(ExpmkTidyFixtures, DeterminismPositive) {
  expect_fixture_matches("determinism_positive.cpp");
}
TEST(ExpmkTidyFixtures, DeterminismNegative) {
  expect_fixture_matches("determinism_negative.cpp");
}
TEST(ExpmkTidyFixtures, LeaseEscapePositive) {
  expect_fixture_matches("lease_escape_positive.cpp");
}
TEST(ExpmkTidyFixtures, LeaseEscapeNegative) {
  expect_fixture_matches("lease_escape_negative.cpp");
}

// The default src filter must see a relative path that starts at the
// filtered component: CI runs `expmk-tidy ... src`, so the driver hands
// the checks "src/util/x.cpp", with no leading '/'.
TEST(ExpmkTidyFixtures, DefaultSrcFilterCoversRelativeSrcPaths) {
  for (const char* name :
       {"determinism_positive.cpp", "lease_escape_positive.cpp"}) {
    const fs::path path = fs::path(EXPMK_TIDY_FIXTURE_DIR) / name;
    const DiagMap expected = parse_expectations(read_file(path));
    ASSERT_FALSE(expected.empty()) << name;
    for (const std::string dir : {"src/util/", "./src/util/", "/repo/src/"}) {
      const DiagMap actual = run_fixture_as(path, dir + name);
      EXPECT_EQ(expected, actual) << dir << name << "\nactual:\n"
                                  << describe(actual);
    }
    // A path with no `src` component stays out of scope.
    EXPECT_TRUE(run_fixture_as(path, std::string("tools/mysrc/") + name)
                    .empty())
        << name;
  }
}

// Every check has at least one firing (positive) fixture — the
// "proves it would have caught it" guarantee from the PR checklist.
TEST(ExpmkTidyFixtures, EveryCheckFiresSomewhere) {
  std::set<std::string> fired;
  for (const char* name :
       {"noalloc_positive.cpp", "determinism_positive.cpp",
        "lease_escape_positive.cpp"}) {
    for (const auto& [key, count] :
         run_fixture(fs::path(EXPMK_TIDY_FIXTURE_DIR) / name)) {
      fired.insert(key.second);
    }
  }
  EXPECT_TRUE(fired.count("expmk-no-alloc-kernel"));
  EXPECT_TRUE(fired.count("expmk-determinism"));
  EXPECT_TRUE(fired.count("expmk-lease-escape"));
}

// ------------------------------------------------------------ unit: lexer

TEST(ExpmkTidyLexer, LiteralsAreOpaque) {
  // Code-shaped text inside strings/comments must not produce tokens.
  const auto toks = expmk_tidy::lex(
      "const char* s = \"new std::vector<int> rand()\";\n"
      "// comment: rand() system_clock\n"
      "auto r = R\"x(push_back( unordered_map )x\";\n");
  int idents = 0;
  for (const auto& t : toks) {
    if (t.kind == expmk_tidy::TokKind::Ident) {
      EXPECT_NE(t.text, "rand");
      EXPECT_NE(t.text, "push_back");
      EXPECT_NE(t.text, "unordered_map");
      ++idents;
    }
  }
  EXPECT_GT(idents, 0);
}

TEST(ExpmkTidyLexer, TracksLines) {
  const auto toks = expmk_tidy::lex("a\nbb\n  ccc\n");
  ASSERT_EQ(toks.size(), 3u);
  EXPECT_EQ(toks[0].line, 1);
  EXPECT_EQ(toks[1].line, 2);
  EXPECT_EQ(toks[2].line, 3);
  EXPECT_EQ(toks[2].col, 3);
}

// -------------------------------------------------- unit: function parse

TEST(ExpmkTidyParse, FindsAnnotatedDefinitionsAndPrototypes) {
  const ParsedFile f = expmk_tidy::parse_file(
      "t.cpp",
      "#define EXPMK_NOALLOC\n"
      "namespace a { namespace b {\n"
      "EXPMK_NOALLOC double proto(int x);\n"
      "EXPMK_NOALLOC double defined(int x) { return x * 2.0; }\n"
      "double plain(int x) { return x; }\n"
      "struct S { EXPMK_NOALLOC double method(int y) { return y; } };\n"
      "} }\n");
  std::map<std::string, bool> annotated;
  for (const auto& fn : f.functions) annotated[fn.name] = fn.annotated;
  EXPECT_TRUE(annotated.at("proto"));
  EXPECT_TRUE(annotated.at("defined"));
  EXPECT_FALSE(annotated.at("plain"));
  EXPECT_TRUE(annotated.at("method"));
}

TEST(ExpmkTidyParse, ConstructorInitListIsNotACallee) {
  const ParsedFile f = expmk_tidy::parse_file(
      "t.cpp",
      "struct T { int a_; double b_;\n"
      "T(int a) : a_(a), b_(0.0) { a_ += 1; }\n"
      "};\n");
  bool found_ctor = false;
  for (const auto& fn : f.functions) {
    if (fn.name == "T") found_ctor = true;
  }
  EXPECT_TRUE(found_ctor);
}

// ------------------------------------------------- unit: NOLINT contract

namespace {
DiagMap analyze_snippet(const std::string& source) {
  Config config;
  config.src_filter = "";
  std::vector<ParsedFile> files;
  files.push_back(expmk_tidy::parse_file("snippet.cpp", source));
  DiagMap actual;
  for (const Diagnostic& d : expmk_tidy::analyze(files, config)) {
    ++actual[{d.line, d.check}];
  }
  return actual;
}
}  // namespace

TEST(ExpmkTidyNolint, JustifiedSuppressionWorks) {
  const auto diags = analyze_snippet(
      "double f() {\n"
      "  return rand();  // NOLINT(expmk-determinism): fixture, not prod\n"
      "}\n");
  EXPECT_TRUE(diags.empty()) << describe(diags);
}

TEST(ExpmkTidyNolint, UnjustifiedSuppressionIsIgnored) {
  const auto diags = analyze_snippet(
      "double f() {\n"
      "  return rand();  // NOLINT(expmk-determinism)\n"
      "}\n");
  ASSERT_EQ(diags.size(), 1u) << describe(diags);
  EXPECT_EQ(diags.begin()->first.second, "expmk-determinism");
}

TEST(ExpmkTidyNolint, NextlineAndGlobForms) {
  const auto ok = analyze_snippet(
      "double f() {\n"
      "  // NOLINTNEXTLINE(expmk-*): seeded fixture stream\n"
      "  return rand();\n"
      "}\n");
  EXPECT_TRUE(ok.empty()) << describe(ok);
  const auto wrong_check = analyze_snippet(
      "double f() {\n"
      "  // NOLINTNEXTLINE(expmk-lease-escape): mismatched check name\n"
      "  return rand();\n"
      "}\n");
  EXPECT_EQ(wrong_check.size(), 1u) << describe(wrong_check);
}

}  // namespace
