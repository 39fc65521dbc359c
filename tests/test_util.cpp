// Unit tests for util/: the chunk pool, timer formatting, CLI parser,
// tables.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <mutex>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "exp/workspace.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace {

using expmk::util::Cli;
using expmk::util::Table;
using expmk::util::for_each_chunk;

// The ThreadPool suite covers the process-wide pool behind for_each_chunk.
TEST(ThreadPool, ParallelForCoversAllChunks) {
  std::atomic<int> sum{0};
  for_each_chunk(3, 100, [&](std::size_t c) { sum += static_cast<int>(c); });
  EXPECT_EQ(sum.load(), 99 * 100 / 2);
}

TEST(ThreadPool, PropagatesExceptions) {
  EXPECT_THROW(for_each_chunk(2, 4,
                              [](std::size_t c) {
                                if (c == 1) throw std::runtime_error("boom");
                              }),
               std::runtime_error);
}

// Several chunks throw: every chunk still runs, and the exception of the
// lowest-index failing chunk is the one rethrown, whichever thread ran it
// and whenever it finished.
TEST(ThreadPool, ParallelForPropagatesFirstError) {
  for (int round = 0; round < 20; ++round) {
    std::vector<std::atomic<int>> ran(32);
    try {
      for_each_chunk(4, ran.size(), [&](std::size_t c) {
        ++ran[c];
        if (c == 3 || c == 5 || c == 11 || c == 30) {
          throw std::logic_error("chunk " + std::to_string(c));
        }
      });
      ADD_FAILURE() << "no exception";
    } catch (const std::logic_error& e) {
      EXPECT_STREQ(e.what(), "chunk 3");
    }
    for (const auto& r : ran) EXPECT_EQ(r.load(), 1);
  }
}

// One worker: every chunk runs on the calling thread, in order (the MC
// engines' threads == 1 path never touches the pool). Several: each chunk
// once.
TEST(ThreadPool, ForEachChunkRunsInlineForOneWorker) {
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::size_t> order;
  for_each_chunk(1, 5, [&](std::size_t c) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(c);
  });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));

  std::vector<std::atomic<int>> hits(37);
  for_each_chunk(3, hits.size(), [&](std::size_t c) { ++hits[c]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  EXPECT_THROW(
      for_each_chunk(1, 2, [](std::size_t) { throw std::runtime_error("x"); }),
      std::runtime_error);
  EXPECT_EQ(expmk::util::resolve_threads(3), 3u);
  EXPECT_GE(expmk::util::resolve_threads(0), 1u);
}

// A chunk body that fans out again (a sweep cell running mc with several
// threads) must finish even when every helper is busy in the outer job:
// the inner caller claims its own chunks.
TEST(ThreadPool, NestedCallsCoverEveryPair) {
  std::vector<std::atomic<int>> hits(8 * 8);
  for_each_chunk(4, 8, [&](std::size_t outer) {
    for_each_chunk(4, 8, [&](std::size_t inner) { ++hits[outer * 8 + inner]; });
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ConcurrentCallersEachGetFullResult) {
  constexpr std::size_t kChunks = 64;
  std::vector<std::size_t> a(kChunks, 0), b(kChunks, 0);
  auto fill = [](std::vector<std::size_t>& out, std::size_t scale) {
    for (int round = 0; round < 50; ++round) {
      for_each_chunk(4, out.size(), [&](std::size_t c) { out[c] += c * scale; });
    }
  };
  std::thread ta(fill, std::ref(a), 1);
  std::thread tb(fill, std::ref(b), 3);
  ta.join();
  tb.join();
  for (std::size_t c = 0; c < kChunks; ++c) {
    EXPECT_EQ(a[c], 50 * c);
    EXPECT_EQ(b[c], 150 * c);
  }
}

// Helpers left over from a wider call must not pile onto a narrower one.
TEST(ThreadPool, JobNeverShowsMoreThanWorkersThreads) {
  for_each_chunk(4, 16, [](std::size_t) {});  // start up to 3 helpers
  for (const std::size_t workers : {std::size_t{2}, std::size_t{3}}) {
    std::mutex m;
    std::set<std::thread::id> ids;
    for_each_chunk(workers, 32, [&](std::size_t) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      const std::lock_guard<std::mutex> lock(m);
      ids.insert(std::this_thread::get_id());
    });
    EXPECT_GE(ids.size(), 1u);
    EXPECT_LE(ids.size(), workers);
  }
}

// The pool's helpers persist, and with them their thread-local
// workspaces: repeated fan-outs create no workspace beyond one per
// thread that ever takes part (the caller and the helpers).
TEST(ThreadPool, HelpersAndTheirWorkspacesPersistAcrossCalls) {
  const std::uint64_t before = expmk::exp::Workspace::created_count();
  for (int call = 0; call < 50; ++call) {
    for_each_chunk(4, 16,
                   [](std::size_t) { (void)expmk::exp::Workspace::local(); });
  }
  EXPECT_LE(expmk::exp::Workspace::created_count() - before,
            expmk::util::resolve_threads(0));
}

TEST(Timer, MeasuresNonNegativeDurations) {
  expmk::util::Timer t;
  EXPECT_GE(t.seconds(), 0.0);
  t.reset();
  EXPECT_GE(t.milliseconds(), 0.0);
}

TEST(Timer, FormatDurationPicksUnits) {
  using expmk::util::format_duration;
  EXPECT_EQ(format_duration(5e-9), "5 ns");
  EXPECT_EQ(format_duration(1.5e-4), "150.0 us");
  EXPECT_EQ(format_duration(0.25), "250.00 ms");
  EXPECT_EQ(format_duration(3.5), "3.50 s");
  EXPECT_EQ(format_duration(600.0), "10.0 min");
  EXPECT_EQ(format_duration(-1.0), "n/a");
}

TEST(Cli, ParsesTypedOptionsAndFlags) {
  Cli cli("prog", "test");
  cli.add_int("n", 5, "count");
  cli.add_double("x", 0.5, "rate");
  cli.add_string("mode", "fast", "mode");
  cli.add_flag("csv", "emit csv");
  const char* argv[] = {"prog", "--n", "12", "--x=0.25", "--csv"};
  cli.parse(5, argv);
  EXPECT_EQ(cli.get_int("n"), 12);
  EXPECT_DOUBLE_EQ(cli.get_double("x"), 0.25);
  EXPECT_EQ(cli.get_string("mode"), "fast");
  EXPECT_TRUE(cli.get_flag("csv"));
}

TEST(Cli, DefaultsSurviveEmptyParse) {
  Cli cli("prog", "test");
  cli.add_int("n", 5, "count");
  const char* argv[] = {"prog"};
  cli.parse(1, argv);
  EXPECT_EQ(cli.get_int("n"), 5);
}

TEST(Cli, UsageListsOptions) {
  Cli cli("prog", "description here");
  cli.add_int("trials", 1000, "number of trials");
  const std::string usage = cli.usage();
  EXPECT_NE(usage.find("--trials"), std::string::npos);
  EXPECT_NE(usage.find("number of trials"), std::string::npos);
  EXPECT_NE(usage.find("1000"), std::string::npos);
}

TEST(Cli, WrongTypeAccessThrows) {
  Cli cli("prog", "test");
  cli.add_int("n", 5, "count");
  EXPECT_THROW((void)cli.get_double("n"), std::logic_error);
  EXPECT_THROW((void)cli.get_int("missing"), std::logic_error);
}

TEST(Cli, ListGettersSplitOnCommasAndSkipEmptyItems) {
  Cli cli("prog", "test");
  cli.add_string("sizes", "4,,6,", "k values");
  cli.add_string("pfails", "1e-4,0.5", "rates");
  cli.add_string("names", "lu,qr", "classes");
  const char* argv[] = {"prog"};
  cli.parse(1, argv);
  EXPECT_EQ(cli.get_ints("sizes"), (std::vector<int>{4, 6}));
  EXPECT_EQ(cli.get_doubles("pfails"), (std::vector<double>{1e-4, 0.5}));
  EXPECT_EQ(cli.get_list("names"), (std::vector<std::string>{"lu", "qr"}));
}

TEST(CliDeathTest, ListItemsMustParseWhole) {
  Cli cli("prog", "test");
  cli.add_string("sizes", "4x6", "k values");
  cli.add_string("pfails", "0.01,abc", "rates");
  EXPECT_EXIT((void)cli.get_ints("sizes"), ::testing::ExitedWithCode(2),
              "invalid integer '4x6' in '--sizes'");
  EXPECT_EXIT((void)cli.get_doubles("pfails"), ::testing::ExitedWithCode(2),
              "invalid number 'abc' in '--pfails'");
}

TEST(CliDeathTest, ScalarOptionsMustParseWhole) {
  Cli cli("prog", "test");
  cli.add_int("n", 5, "count");
  cli.add_double("x", 0.5, "rate");
  const char* bad_int[] = {"prog", "--n", "12x"};
  EXPECT_EXIT(cli.parse(3, bad_int), ::testing::ExitedWithCode(2),
              "invalid value '12x' for option '--n'");
  const char* bad_double[] = {"prog", "--x=0.5abc"};
  EXPECT_EXIT(cli.parse(2, bad_double), ::testing::ExitedWithCode(2),
              "invalid value '0.5abc' for option '--x'");
}

TEST(CliDeathTest, CountsMustBeNonNegative) {
  Cli cli("prog", "test");
  cli.add_int("trials", 7, "count");
  cli.add_int("runs", 0, "count");
  const char* args[] = {"prog", "--trials=-1"};
  cli.parse(2, args);
  EXPECT_EQ(cli.get_count("runs"), 0u);
  EXPECT_EXIT((void)cli.get_count("trials"), ::testing::ExitedWithCode(2),
              "--trials must be >= 0");
}

TEST(Table, AlignedOutputContainsCellsAndRule) {
  Table t({"name", "value"});
  t.begin_row();
  t.add("alpha");
  t.add_int(42);
  t.begin_row();
  t.add("beta");
  t.add_double(0.125);
  std::ostringstream os;
  t.print_aligned(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("42"), std::string::npos);
  EXPECT_NE(s.find("0.125"), std::string::npos);
  EXPECT_NE(s.find("----"), std::string::npos);
}

TEST(Table, CsvOutputIsCommaSeparated) {
  Table t({"a", "b"});
  t.begin_row();
  t.add_int(1);
  t.add_int(2);
  std::ostringstream os;
  t.print_csv(os);
  EXPECT_EQ(os.str(), "a,b\n1,2\n");
}

TEST(Table, SignedScientificFormatting) {
  Table t({"x"});
  t.begin_row();
  t.add_signed_sci(0.0193);
  EXPECT_EQ(t.cell(0, 0), "+1.930e-02");
  t.begin_row();
  t.add_signed_sci(-6e-06);
  EXPECT_EQ(t.cell(1, 0), "-6.000e-06");
}

TEST(Table, RejectsMalformedUse) {
  EXPECT_THROW(Table({}), std::invalid_argument);
  Table t({"only"});
  EXPECT_THROW(t.add("no row yet"), std::logic_error);
  t.begin_row();
  t.add("ok");
  EXPECT_THROW(t.add("overflow"), std::logic_error);
}

}  // namespace
