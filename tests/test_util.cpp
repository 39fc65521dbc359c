// Unit tests for util/: thread pool, timer formatting, CLI parser, tables.

#include <gtest/gtest.h>

#include <atomic>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/cli.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace {

using expmk::util::Cli;
using expmk::util::Table;
using expmk::util::ThreadPool;

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  auto f = pool.submit([] { return 41 + 1; });
  EXPECT_EQ(f.get(), 42);
}

TEST(ThreadPool, ZeroThreadsPromotedToOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.size(), 1u);
  EXPECT_EQ(pool.submit([] { return 7; }).get(), 7);
}

TEST(ThreadPool, ParallelForCoversAllChunks) {
  ThreadPool pool(3);
  std::atomic<int> sum{0};
  pool.parallel_for_chunks(100, [&](std::size_t c) {
    sum += static_cast<int>(c);
  });
  EXPECT_EQ(sum.load(), 99 * 100 / 2);
}

TEST(ThreadPool, PropagatesExceptions) {
  ThreadPool pool(2);
  auto f = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(f.get(), std::runtime_error);
}

TEST(ThreadPool, ParallelForPropagatesFirstError) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for_chunks(
                   8,
                   [](std::size_t c) {
                     if (c == 3) throw std::logic_error("chunk 3");
                   }),
               std::logic_error);
}

TEST(ThreadPool, DestructorDrainsQueue) {
  std::atomic<int> done{0};
  {
    ThreadPool pool(1);
    for (int i = 0; i < 32; ++i) {
      (void)pool.submit([&done] { ++done; });
    }
  }  // destructor must finish all 32
  EXPECT_EQ(done.load(), 32);
}

// One worker: every chunk runs on the calling thread, in order (the MC
// engines' threads == 1 path spawns no pool). Several: each chunk once.
TEST(ThreadPool, ForEachChunkRunsInlineForOneWorker) {
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::size_t> order;
  expmk::util::for_each_chunk(1, 5, [&](std::size_t c) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(c);
  });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));

  std::vector<std::atomic<int>> hits(37);
  expmk::util::for_each_chunk(3, hits.size(),
                              [&](std::size_t c) { ++hits[c]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  EXPECT_THROW(expmk::util::for_each_chunk(
                   1, 2, [](std::size_t) { throw std::runtime_error("x"); }),
               std::runtime_error);
  EXPECT_EQ(expmk::util::resolve_threads(3), 3u);
  EXPECT_GE(expmk::util::resolve_threads(0), 1u);
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
