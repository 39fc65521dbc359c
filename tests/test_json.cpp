// Tests for the util::json string scanner: unescaped runs are copied in
// one piece, so escapes and \u surrogate pairs at the start, middle and
// end of a string (and next to each other) must split the runs exactly;
// raw control characters are still rejected, at the same byte offset.

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "util/json.hpp"

namespace {

namespace json = expmk::util::json;

std::string decode(const std::string& literal) {
  return json::parse(literal).as_string();
}

TEST(Json, StringRunsSplitAtEscapesAndSurrogatePairs) {
  EXPECT_EQ(decode(R"("")"), "");
  EXPECT_EQ(decode(R"("plain run")"), "plain run");
  EXPECT_EQ(decode(R"("\nab")"), "\nab");
  EXPECT_EQ(decode(R"("ab\n")"), "ab\n");
  EXPECT_EQ(decode(R"("a\tb\\c\"d\/e")"), "a\tb\\c\"d/e");
  EXPECT_EQ(decode(R"("\r\n\b\f")"), "\r\n\b\f");
  EXPECT_EQ(decode(R"("\u0041bc")"), "Abc");
  EXPECT_EQ(decode(R"("x\u00e9")"), "x\xc3\xa9");
  EXPECT_EQ(decode(R"("\u20ac\u20AC")"), "\xe2\x82\xac\xe2\x82\xac");
  // U+1F600 as a surrogate pair at the start, between runs, at the end,
  // and twice in a row.
  const std::string smile = "\xf0\x9f\x98\x80";
  EXPECT_EQ(decode(R"("\ud83d\ude00tail")"), smile + "tail");
  EXPECT_EQ(decode(R"("head\ud83d\ude00tail")"), "head" + smile + "tail");
  EXPECT_EQ(decode(R"("head\ud83d\ude00")"), "head" + smile);
  EXPECT_EQ(decode(R"("\ud83d\ude00\uD83D\uDE00")"), smile + smile);
  // Raw bytes >= 0x20 (DEL, UTF-8) pass through inside a run.
  EXPECT_EQ(decode("\"a\x7f\xc3\xa9z\""), "a\x7f\xc3\xa9z");
  // A long run, as an inline taskgraph payload carries.
  std::string big;
  for (int i = 0; i < 2000; ++i) big += "task t" + std::to_string(i) + " 1";
  std::string escaped;
  for (int i = 0; i < 2000; ++i) {
    escaped += "task t" + std::to_string(i) + " 1\\n";
  }
  std::string expected;
  for (int i = 0; i < 2000; ++i) {
    expected += "task t" + std::to_string(i) + " 1\n";
  }
  EXPECT_EQ(decode('"' + big + '"'), big);
  EXPECT_EQ(decode('"' + escaped + '"'), expected);
  // Object keys go through the same scanner.
  const json::Value obj = json::parse(R"({"key": "v\"", "x": 1})");
  ASSERT_NE(obj.find("key"), nullptr);
  EXPECT_EQ(obj.find("key")->as_string(), "v\"");
}

std::string error_of(const std::string& text) {
  try {
    (void)json::parse(text);
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(Json, StringErrorsAreUnchanged) {
  // Raw control characters anywhere in a string; the offset is the byte
  // just past the offending one.
  EXPECT_EQ(error_of("\"\x01\""),
            "json parse error at byte 2: raw control character in string");
  EXPECT_EQ(error_of("\"ab\ncd\""),
            "json parse error at byte 4: raw control character in string");
  EXPECT_EQ(error_of("\"abc\x1f\""),
            "json parse error at byte 5: raw control character in string");
  EXPECT_EQ(error_of("\"a\\n\tb\""),
            "json parse error at byte 5: raw control character in string");
  EXPECT_EQ(error_of(std::string("\"a\0b\"", 5)),
            "json parse error at byte 3: raw control character in string");
  EXPECT_EQ(error_of("\"abc"), "json parse error at byte 4: unterminated string");
  EXPECT_EQ(error_of("\"abc\\"),
            "json parse error at byte 5: unterminated escape");
  EXPECT_EQ(error_of(R"("a\qb")"),
            "json parse error at byte 4: unknown escape character");
  EXPECT_EQ(error_of(R"("a\ud83dx")"),
            "json parse error at byte 8: unpaired surrogate");
  EXPECT_EQ(error_of(R"("\ude00")"),
            "json parse error at byte 7: unpaired low surrogate");
  EXPECT_EQ(error_of(R"("\ud83d\u0041")"),
            "json parse error at byte 13: invalid low surrogate");
  EXPECT_EQ(error_of(R"("\u12g4")"),
            "json parse error at byte 6: non-hex digit in \\u escape");
}

}  // namespace
