// Tests for graph/metrics.

#include <gtest/gtest.h>

#include <sstream>

#include "gen/cholesky.hpp"
#include "gen/random_dags.hpp"
#include "graph/metrics.hpp"
#include "test_helpers.hpp"

namespace {

using expmk::graph::compute_metrics;
using expmk::graph::level_partition;

TEST(Metrics, DiamondNumbers) {
  const auto g = expmk::test::diamond(1.0, 2.0, 3.0, 4.0);
  const auto m = compute_metrics(g);
  EXPECT_EQ(m.tasks, 4u);
  EXPECT_EQ(m.edges, 4u);
  EXPECT_EQ(m.entries, 1u);
  EXPECT_EQ(m.exits, 1u);
  EXPECT_EQ(m.depth, 3u);
  EXPECT_EQ(m.max_level_width, 2u);
  EXPECT_DOUBLE_EQ(m.total_work, 10.0);
  EXPECT_DOUBLE_EQ(m.critical_path, 8.0);
  EXPECT_DOUBLE_EQ(m.average_parallelism, 1.25);
  EXPECT_EQ(m.max_out_degree, 2u);
  EXPECT_EQ(m.max_in_degree, 2u);
  EXPECT_DOUBLE_EQ(m.density, 4.0 / 6.0);
}

TEST(Metrics, LevelPartitionCoversAllTasks) {
  const auto g = expmk::gen::cholesky_dag(5);
  const auto levels = level_partition(g);
  std::size_t total = 0;
  for (const auto& l : levels) total += l.size();
  EXPECT_EQ(total, g.task_count());
  // Entries exactly at level 0.
  EXPECT_EQ(levels[0].size(), g.entry_tasks().size());
  // Each task's level exceeds its predecessors'.
  std::vector<std::size_t> level_of(g.task_count());
  for (std::size_t l = 0; l < levels.size(); ++l) {
    for (const auto v : levels[l]) level_of[v] = l;
  }
  for (expmk::graph::TaskId u = 0; u < g.task_count(); ++u) {
    for (const auto v : g.successors(u)) {
      EXPECT_LT(level_of[u], level_of[v]);
    }
  }
}

TEST(Metrics, ParallelismIsConsistentWithFamilies) {
  // A chain has parallelism 1; independent tasks have parallelism ~n.
  const auto chain = expmk::gen::uniform_chain(10, 1.0);
  EXPECT_NEAR(compute_metrics(chain).average_parallelism, 1.0, 1e-12);
  const auto indep = expmk::gen::independent_tasks(10, 5, {0.2, 0.2});
  EXPECT_NEAR(compute_metrics(indep).average_parallelism, 10.0, 1e-9);
}

TEST(Metrics, StreamOperatorMentionsKeyNumbers) {
  std::ostringstream os;
  os << compute_metrics(expmk::test::diamond());
  EXPECT_NE(os.str().find("tasks=4"), std::string::npos);
  EXPECT_NE(os.str().find("critical_path"), std::string::npos);
}

}  // namespace
