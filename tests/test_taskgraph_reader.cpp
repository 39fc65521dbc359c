// Differential tests for graph/serialize against the original iostream
// reader and writer (tests/taskgraph_reference.*):
//
//  * the traps where a string_view scanner with from_chars could part
//    from `>>`: leading '+', trailing garbage after a number, inf/nan,
//    overflow and underflow, hex floats, CRLF and the other whitespace
//    bytes, extra tokens, -0, odd headers, interleaved lines;
//  * a fixed-seed fuzz loop that mutates valid files and requires the
//    same accept/reject decision, the same exception text (line number
//    included) and, when both accept, the same Dag and rates bit for bit;
//  * the writer is byte-equal to the ostream writer on every generator
//    family and on edge doubles — those bytes are the content-hash input.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <typeinfo>
#include <vector>

#include "gen/cholesky.hpp"
#include "gen/lu.hpp"
#include "gen/qr.hpp"
#include "gen/random_dags.hpp"
#include "graph/serialize.hpp"
#include "taskgraph_reference.hpp"

namespace {

using expmk::graph::Dag;
using expmk::graph::TaskGraphFile;
using expmk::graph::TaskId;

struct Outcome {
  bool ok = false;
  std::string error;  // exception type and what() when !ok
  TaskGraphFile file;
};

template <class Read>
Outcome run(Read read) {
  Outcome out;
  try {
    out.file = read();
    out.ok = true;
  } catch (const std::exception& e) {
    out.error = std::string(typeid(e).name()) + ": " + e.what();
  }
  return out;
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Both readers agree on `text`: both reject with the same exception, or
/// both accept with bitwise-equal Dags and rates.
testing::AssertionResult same_outcome(const std::string& text) {
  const Outcome ref = run([&] {
    return expmk::test::reference_taskgraph_file_from_string(text);
  });
  const Outcome got =
      run([&] { return expmk::graph::taskgraph_file_from_string(text); });
  const auto fail = [&](const std::string& why) {
    return testing::AssertionFailure()
           << why << "\n  input: " << testing::PrintToString(text);
  };
  if (ref.ok != got.ok) {
    return fail("accept/reject differs: reference " +
                (ref.ok ? std::string("accepts") : ref.error) +
                ", scanner " + (got.ok ? std::string("accepts") : got.error));
  }
  if (!ref.ok) {
    if (ref.error != got.error) {
      return fail("error differs: reference '" + ref.error +
                  "', scanner '" + got.error + "'");
    }
    return testing::AssertionSuccess();
  }
  const Dag& a = ref.file.dag;
  const Dag& b = got.file.dag;
  if (a.task_count() != b.task_count() || a.edge_count() != b.edge_count()) {
    return fail("task or edge count differs");
  }
  for (TaskId v = 0; v < a.task_count(); ++v) {
    if (a.name(v) != b.name(v)) return fail("name differs");
    if (bits(a.weight(v)) != bits(b.weight(v))) {
      return fail("weight of task " + std::to_string(v) + " differs");
    }
    const auto sa = a.successors(v);
    const auto sb = b.successors(v);
    if (!std::equal(sa.begin(), sa.end(), sb.begin(), sb.end())) {
      return fail("successors differ");
    }
  }
  if (ref.file.rates.size() != got.file.rates.size()) {
    return fail("rate count differs");
  }
  for (std::size_t i = 0; i < ref.file.rates.size(); ++i) {
    if (bits(ref.file.rates[i]) != bits(got.file.rates[i])) {
      return fail("rate " + std::to_string(i) + " differs");
    }
  }
  return testing::AssertionSuccess();
}

bool accepts(const std::string& text) {
  return run([&] { return expmk::graph::taskgraph_file_from_string(text); })
      .ok;
}

// Number spellings where from_chars and `>>` could disagree.
const std::vector<std::string> kNumberTraps = {
    "+1", "+1.5", "-0", "-0.0", "+0", "1.5x", "1.5.3", "1e5e3", "1ex",
    "1e", "1e+", "1e-", "1E5", "1.e5", ".5", "5.", "-.5", "+.5", ".", "+",
    "-", "+-1", "--1", "++1", "e5", ".e5", "inf", "-inf", "+inf", "INF",
    "nan", "NaN", "-nan", "infinity", "0x1p3", "0X1P3", "0x10", "1e999",
    "-1e999", "1e308", "1.7976931348623157e308", "1.7976931348623159e308",
    "1e-400", "-1e-400", "2e-324", "3e-324", "4.9406564584124654e-324",
    "2.2250738585072011e-308", "1e-310", "0.000000000000000000001e-320",
    "100000000000000000000000000000000000000e300", "00012", "0012.50",
    "1e0005", "9999999999999999999999", "0.1000000000000000055511151231257827",
    "1e99999999999999999999", "1e-99999999999999999999", "1,5", "1_000",
    "١", "1\x01", "12345678901234567890123456789012345678901234567890",
    // Out of range before an 'e' that has no exponent digits.
    "0." + std::string(400, '0') + "1e", "1" + std::string(400, '0') + "e",
    "-0." + std::string(400, '0') + "1e+"};

const std::vector<std::string> kHeaderTraps = {
    "expmk-taskgraph 1", "expmk-taskgraph 2", "expmk-taskgraph 1.5",
    "expmk-taskgraph +1", "expmk-taskgraph +2", "expmk-taskgraph -1",
    "expmk-taskgraph 01", "expmk-taskgraph 2x", "expmk-taskgraph 3",
    "expmk-taskgraph 0", "expmk-taskgraph", "expmk-taskgraph x",
    "expmk-taskgraph +-1", "expmk-taskgraph 99999999999",
    "expmk-taskgraph 2147483648", "expmk-taskgraph -2147483648",
    "expmk-taskgraph -2147483649", "expmk-taskgraph 1 extra tokens",
    "expmk-taskgraph\t2", "expmk-taskgraph\v1\r", "expmk-taskgraph1",
    "EXPMK-TASKGRAPH 1", "task a 1", "expmk-taskgraph 0x1"};

TEST(TaskgraphReader, NumberTrapsMatchReference) {
  for (const std::string& n : kNumberTraps) {
    // As a weight in either version, as a rate, and with a token after.
    EXPECT_TRUE(same_outcome("expmk-taskgraph 1\ntask a " + n + "\n"));
    EXPECT_TRUE(same_outcome("expmk-taskgraph 1\ntask a " + n + " 7\n"));
    EXPECT_TRUE(same_outcome("expmk-taskgraph 2\ntask a " + n + " 0.5\n"));
    EXPECT_TRUE(same_outcome("expmk-taskgraph 2\ntask a 1 " + n + "\n"));
    EXPECT_TRUE(same_outcome("expmk-taskgraph 2\ntask a " + n + "\n"));
    EXPECT_TRUE(same_outcome("expmk-taskgraph 2\ntask a 1 " + n + " z\n"));
  }
  // The documented outcomes, not only agreement.
  EXPECT_TRUE(accepts("expmk-taskgraph 1\ntask a +1\n"));
  EXPECT_TRUE(accepts("expmk-taskgraph 1\ntask a 1.5x\n"));
  EXPECT_FALSE(accepts("expmk-taskgraph 2\ntask a 1.5x 0.1\n"));
  EXPECT_FALSE(accepts("expmk-taskgraph 1\ntask a inf\n"));
  EXPECT_FALSE(accepts("expmk-taskgraph 1\ntask a nan\n"));
  EXPECT_FALSE(accepts("expmk-taskgraph 1\ntask a 1e999\n"));
  EXPECT_FALSE(accepts("expmk-taskgraph 1\ntask a 1e\n"));
  EXPECT_TRUE(accepts("expmk-taskgraph 1\ntask a 1e-400\n"));
  EXPECT_TRUE(accepts("expmk-taskgraph 1\ntask a -0\n"));
  const auto sub = expmk::graph::taskgraph_from_string(
      "expmk-taskgraph 1\ntask a 5e-324\ntask b 0x1p3\ntask c -1e-400\n");
  EXPECT_EQ(sub.weight(0), std::numeric_limits<double>::denorm_min());
  EXPECT_EQ(bits(sub.weight(1)), bits(0.0));  // "0", then "x1p3" ignored
  EXPECT_EQ(bits(sub.weight(2)), bits(-0.0));
}

TEST(TaskgraphReader, HeaderAndLayoutTrapsMatchReference) {
  for (const std::string& h : kHeaderTraps) {
    EXPECT_TRUE(same_outcome(h + "\ntask a 1 0.5\n"));
    EXPECT_TRUE(same_outcome("# lead comment\n\n" + h + "\n"));
  }
  const std::vector<std::string> layouts = {
      "",
      "\n\n   \n# only comments\n",
      "expmk-taskgraph 1",
      "expmk-taskgraph 1\r\ntask a 1\r\ntask b 2\r\nedge a b\r\n",
      "expmk-taskgraph 1\ntask\ta\t1\ntask\vb\f2\r\nedge a\tb",
      "expmk-taskgraph 1\n task a 1 extra # c\ntask b 2 3 4\nedge a b c d\n",
      "expmk-taskgraph 1\ntask a 1\nedge a b\ntask b 2\n",
      "expmk-taskgraph 1\ntask a 1\ntask b 2\nedge a b\ntask c 3\nedge b c\n",
      "expmk-taskgraph 1\ntask a 1\ntask b 2\nedge a b\nedge a b\n",
      "expmk-taskgraph 1\ntask a 1\ntask a 2\n",
      "expmk-taskgraph 1\ntask a 1\nedge a a\n",
      "expmk-taskgraph 1\ntask a 1\nedge a\n",
      "expmk-taskgraph 1\ntask a 1\nedge\n",
      "expmk-taskgraph 1\ntask a\n",
      "expmk-taskgraph 1\ntask\n",
      "expmk-taskgraph 1\ntask a -1\n",
      "expmk-taskgraph 1\nTask a 1\n",
      "expmk-taskgraph 1\nexpmk-taskgraph 1\n",
      "expmk-taskgraph 1\ntask a#b 1\n",
      "expmk-taskgraph 1\ntask edge 1\ntask task 2\nedge edge task\n",
      std::string("expmk-taskgraph 1\ntask a\0b 1\ntask c 2\n", 38),
      "expmk-taskgraph 1\ntask \xc3\xa9 1\ntask \xff 2\nedge \xc3\xa9 \xff\n",
      "expmk-taskgraph 2\ntask a 1 -0\ntask b 1 -1e-400\n",
      "expmk-taskgraph 2\ntask a 1 -1\n",
      "expmk-taskgraph 2\ntask a 1\n",
      "\r\nexpmk-taskgraph 1\r\n\r\n",
      "expmk-taskgraph 1\n\r\n\t\n\v\f\n"};
  for (const std::string& text : layouts) EXPECT_TRUE(same_outcome(text));
}

TEST(TaskgraphReader, ViewStopsAtItsEnd) {
  // A view into a larger buffer: nothing past its end is read.
  const std::string buffer =
      "expmk-taskgraph 1\ntask a 1\ntask b 2\nedge a b\nGARBAGE";
  const std::string_view view(buffer.data(), buffer.size() - 7);
  const Dag g = expmk::graph::taskgraph_from_string(view);
  EXPECT_EQ(g.task_count(), 2u);
  EXPECT_EQ(g.edge_count(), 1u);
  // ...and a number at the very end of the view stops there too.
  const std::string digits = "expmk-taskgraph 1\ntask a 12345";
  const Dag h = expmk::graph::taskgraph_from_string(
      std::string_view(digits.data(), digits.size() - 3));
  EXPECT_EQ(h.weight(0), 12.0);
}

/// Token spans [begin, end) of `text` under the reader's whitespace set.
std::vector<std::pair<std::size_t, std::size_t>> tokens(
    const std::string& text) {
  const auto space = [](char c) {
    return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' ||
           c == '\r';
  };
  std::vector<std::pair<std::size_t, std::size_t>> out;
  std::size_t i = 0;
  while (i < text.size()) {
    while (i < text.size() && space(text[i])) ++i;
    const std::size_t b = i;
    while (i < text.size() && !space(text[i])) ++i;
    if (i > b) out.emplace_back(b, i);
  }
  return out;
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream is(text);
  for (std::string line; std::getline(is, line);) lines.push_back(line);
  return lines;
}

std::string join_lines(const std::vector<std::string>& lines) {
  std::string out;
  for (const std::string& l : lines) out += l + '\n';
  return out;
}

std::string mutate(std::string text, std::mt19937_64& rng) {
  const auto pick = [&](std::size_t n) {
    return static_cast<std::size_t>(rng() % std::max<std::size_t>(n, 1));
  };
  static const std::string kBytes =
      std::string(" \t\v\f\r\n#+-.eEx0123456789a") + '\0' + '\xff';
  static const std::vector<std::string> kWords = {
      "task", "edge", "a", "t0", "t1", "GETRF_0", "expmk-taskgraph", "#"};
  switch (pick(11)) {
    case 0: {  // replace a token with a number trap
      const auto toks = tokens(text);
      if (toks.empty()) break;
      const auto [b, e] = toks[pick(toks.size())];
      text.replace(b, e - b, kNumberTraps[pick(kNumberTraps.size())]);
      break;
    }
    case 1: {  // replace a token with a keyword or a name
      const auto toks = tokens(text);
      if (toks.empty()) break;
      const auto [b, e] = toks[pick(toks.size())];
      text.replace(b, e - b, kWords[pick(kWords.size())]);
      break;
    }
    case 2:  // insert a byte
      text.insert(pick(text.size() + 1), 1, kBytes[pick(kBytes.size())]);
      break;
    case 3:  // delete a byte
      if (!text.empty()) text.erase(pick(text.size()), 1);
      break;
    case 4: {  // CRLF line ends
      std::string crlf;
      for (const char c : text) {
        if (c == '\n') crlf += '\r';
        crlf += c;
      }
      text = crlf;
      break;
    }
    case 5: {  // a whitespace separator becomes another whitespace byte
      static const char kSpace[] = {'\t', '\v', '\f', '\r', ' '};
      for (std::size_t tries = 0; tries < 8 && !text.empty(); ++tries) {
        const std::size_t i = pick(text.size());
        if (text[i] == ' ') {
          text[i] = kSpace[pick(sizeof kSpace)];
          break;
        }
      }
      break;
    }
    case 6: {  // extra trailing tokens or a comment on a line
      auto lines = split_lines(text);
      if (lines.empty()) break;
      static const char* kTails[] = {" extra", " 1 2 3", " # note", "\t0.5",
                                     " x1p3", "#", " \r"};
      lines[pick(lines.size())] += kTails[pick(std::size(kTails))];
      text = join_lines(lines);
      break;
    }
    case 7: {  // swap two lines (interleaves tasks and edges)
      auto lines = split_lines(text);
      if (lines.size() < 2) break;
      std::swap(lines[pick(lines.size())], lines[pick(lines.size())]);
      text = join_lines(lines);
      break;
    }
    case 8: {  // duplicate or drop a line
      auto lines = split_lines(text);
      if (lines.empty()) break;
      const std::size_t i = pick(lines.size());
      if (rng() % 2 != 0) {
        lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(i),
                     lines[i]);
      } else {
        lines.erase(lines.begin() + static_cast<std::ptrdiff_t>(i));
      }
      text = join_lines(lines);
      break;
    }
    case 9: {  // replace the header
      const std::size_t nl = text.find('\n');
      text.replace(0, nl == std::string::npos ? text.size() : nl,
                   kHeaderTraps[pick(kHeaderTraps.size())]);
      break;
    }
    default:  // truncate
      text.resize(pick(text.size() + 1));
      break;
  }
  return text;
}

std::vector<std::string> fuzz_seeds() {
  std::vector<std::string> seeds;
  const std::vector<Dag> dags = {
      expmk::gen::lu_dag(3), expmk::gen::cholesky_dag(3),
      expmk::gen::erdos_dag(9, 0.3, 5), expmk::gen::tiled_fork_join(2, 2, 2, 3),
      expmk::gen::wheatstone_bridge()};
  for (const Dag& g : dags) {
    seeds.push_back(expmk::graph::to_taskgraph(g));
    std::vector<double> rates(g.task_count());
    for (std::size_t i = 0; i < rates.size(); ++i) {
      rates[i] = 1e-3 * static_cast<double>(i + 1) / 7.0;
    }
    seeds.push_back(expmk::graph::to_taskgraph(g, rates));
  }
  seeds.push_back(
      "# hand written\nexpmk-taskgraph 2\r\n\ttask a 1.5 0.25 # x\n"
      "task b +2 1e-3\nedge a b\n\ntask c 0 0\nedge b c extra\n");
  return seeds;
}

TEST(TaskgraphReader, DifferentialFuzzAgreesWithReference) {
  std::mt19937_64 rng(20261019);
  const std::vector<std::string> seeds = fuzz_seeds();
  std::size_t accepted = 0;
  std::size_t rejected = 0;
  constexpr int kCases = 8000;
  for (int i = 0; i < kCases; ++i) {
    std::string text = seeds[rng() % seeds.size()];
    const int rounds = 1 + static_cast<int>(rng() % 3);
    for (int r = 0; r < rounds; ++r) text = mutate(std::move(text), rng);
    const testing::AssertionResult same = same_outcome(text);
    ASSERT_TRUE(same) << "case " << i;
    ++(accepts(text) ? accepted : rejected);
  }
  // The loop exercises both sides of the decision.
  EXPECT_GT(accepted, static_cast<std::size_t>(kCases / 10));
  EXPECT_GT(rejected, static_cast<std::size_t>(kCases / 10));
}

// ---------------------------------------------------------------- writer

std::vector<double> test_rates(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> u(0.0, 0.05);
  std::vector<double> rates(n);
  for (double& r : rates) r = u(rng);
  return rates;
}

TEST(TaskgraphWriter, ByteEqualToReferenceOnEveryFamily) {
  namespace gen = expmk::gen;
  const std::vector<Dag> dags = {
      gen::lu_dag(2),
      gen::lu_dag(6),
      gen::lu_dag(10),
      gen::qr_dag(6),
      gen::cholesky_dag(8),
      gen::layered_random(5, 6, 0.3, 11),
      gen::erdos_dag(40, 0.2, 12),
      gen::random_series_parallel(30, 13),
      gen::chain_dag(20, 14),
      gen::uniform_chain(10, 0.1),
      gen::fork_join_dag(12, 15),
      gen::uniform_fork_join(8, 0.3, 0.0),
      gen::independent_tasks(15, 16),
      gen::tiled_fork_join(4, 5, 3, 17),
      gen::wheatstone_bridge(),
      Dag{}};
  for (std::size_t i = 0; i < dags.size(); ++i) {
    const Dag& g = dags[i];
    EXPECT_EQ(expmk::graph::to_taskgraph(g),
              expmk::test::reference_to_taskgraph(g))
        << "family " << i;
    const auto rates = test_rates(g.task_count(), i);
    EXPECT_EQ(expmk::graph::to_taskgraph(g, rates),
              expmk::test::reference_to_taskgraph(g, rates))
        << "family " << i << " (v2)";
    std::ostringstream os;
    expmk::graph::write_taskgraph(os, g, rates);
    EXPECT_EQ(os.str(), expmk::test::reference_to_taskgraph(g, rates));
  }
}

TEST(TaskgraphWriter, EdgeDoublesMatchReference) {
  std::vector<double> values = {
      0.0,
      -0.0,
      5e-324,
      std::numeric_limits<double>::min(),
      1e-310,
      1e308,
      std::numeric_limits<double>::max(),
      0.1,
      1.0 / 3.0,
      1e-5,
      1e-4,
      1e15,
      1e16,
      1e17,
      9007199254740993.0,
      123456789012345678.0,
      1e21,
      2.5,
      100.0};
  std::mt19937_64 rng(7);
  while (values.size() < 20000) {
    // Random bit patterns cover every exponent; keep finite, non-negative.
    const double v = std::bit_cast<double>(rng() >> 1);
    if (std::isfinite(v)) values.push_back(v);
  }
  Dag g;
  for (const double v : values) g.add_task(v);
  const std::string text = expmk::graph::to_taskgraph(g);
  EXPECT_EQ(text, expmk::test::reference_to_taskgraph(g));
  // The same doubles as v2 rates (weights all 1).
  Dag ones;
  for (std::size_t i = 0; i < values.size(); ++i) ones.add_task(1.0);
  EXPECT_EQ(expmk::graph::to_taskgraph(ones, values),
            expmk::test::reference_to_taskgraph(ones, values));
  // And they read back bit for bit.
  const Dag back = expmk::graph::taskgraph_from_string(text);
  ASSERT_EQ(back.task_count(), values.size());
  for (TaskId v = 0; v < back.task_count(); ++v) {
    ASSERT_EQ(bits(back.weight(v)), bits(values[v])) << v;
  }
}

}  // namespace
