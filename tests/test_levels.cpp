// Unit tests for graph::compute_levels over the CSR view: top/bottom level
// conventions and their relationship to the critical path (the identities
// the first-order estimator depends on), plus the hop-count level
// partition the reference level bound folds over.

#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "gen/cholesky.hpp"
#include "gen/random_dags.hpp"
#include "graph/csr.hpp"
#include "reference_estimators.hpp"
#include "test_helpers.hpp"

namespace {

using expmk::graph::CsrDag;
using expmk::graph::critical_path_length;

/// Top and bottom levels plus d(G), the level arrays in Dag id order.
struct Levels {
  std::vector<double> top;
  std::vector<double> bottom;
  double critical_path = 0.0;
};

Levels levels_of(const expmk::graph::Dag& g) {
  const CsrDag csr(g);
  const std::size_t n = csr.task_count();
  std::vector<double> top(n), bottom(n);
  Levels out;
  out.critical_path = compute_levels(csr, csr.weights(), top, bottom);
  out.top.resize(n);
  out.bottom.resize(n);
  for (expmk::graph::TaskId i = 0; i < n; ++i) {
    out.top[i] = top[csr.position_of(i)];
    out.bottom[i] = bottom[csr.position_of(i)];
  }
  return out;
}

// The reference level bound's partition (tests/reference_estimators).
TEST(Metrics, LevelPartitionCoversAllTasks) {
  const auto g = expmk::gen::cholesky_dag(5);
  const auto levels = expmk::ref::level_partition(g);
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

TEST(Levels, DiamondValues) {
  const auto g = expmk::test::diamond(1.0, 2.0, 3.0, 4.0);
  const auto [top, bottom, d] = levels_of(g);
  EXPECT_DOUBLE_EQ(d, 8.0);

  const auto A = g.find_by_name("A"), B = g.find_by_name("B"),
             C = g.find_by_name("C"), D = g.find_by_name("D");
  EXPECT_DOUBLE_EQ(top[A], 0.0);
  EXPECT_DOUBLE_EQ(top[B], 1.0);
  EXPECT_DOUBLE_EQ(top[C], 1.0);
  EXPECT_DOUBLE_EQ(top[D], 4.0);  // A + C
  EXPECT_DOUBLE_EQ(bottom[D], 4.0);
  EXPECT_DOUBLE_EQ(bottom[B], 6.0);
  EXPECT_DOUBLE_EQ(bottom[C], 7.0);
  EXPECT_DOUBLE_EQ(bottom[A], 8.0);
}

TEST(Levels, EntryTopIsZeroExitBottomIsWeight) {
  const auto g = expmk::gen::layered_random(4, 3, 0.5, 11);
  const auto [top, bottom, d] = levels_of(g);
  for (const auto e : g.entry_tasks()) EXPECT_DOUBLE_EQ(top[e], 0.0);
  for (const auto x : g.exit_tasks()) {
    EXPECT_DOUBLE_EQ(bottom[x], g.weight(x));
  }
}

TEST(Levels, BundleCriticalPathMatchesLongestPath) {
  const auto g = expmk::gen::cholesky_dag(5);
  EXPECT_NEAR(levels_of(g).critical_path, critical_path_length(g), 1e-12);
}

// Key identity behind the closed-form first order: for every task,
// top(i) + bottom(i) <= d(G), with equality on critical tasks; and the
// bottom level of an entry on the critical path equals d(G).
class LevelsInvariantSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LevelsInvariantSweep, ThroughPathNeverExceedsCriticalPath) {
  const auto g = expmk::gen::erdos_dag(30, 0.15, GetParam());
  const auto levels = levels_of(g);
  bool some_tight = false;
  for (expmk::graph::TaskId v = 0; v < g.task_count(); ++v) {
    const double through = levels.top[v] + levels.bottom[v];
    EXPECT_LE(through, levels.critical_path + 1e-12);
    if (expmk::test::near(through, levels.critical_path)) some_tight = true;
  }
  EXPECT_TRUE(some_tight);  // the critical path itself is tight
}

TEST_P(LevelsInvariantSweep, BottomLevelIsMonotoneAlongEdges) {
  const auto g = expmk::gen::erdos_dag(30, 0.15, GetParam() + 100);
  const auto bottom = levels_of(g).bottom;
  for (expmk::graph::TaskId u = 0; u < g.task_count(); ++u) {
    for (const auto v : g.successors(u)) {
      // bottom(u) >= a_u + bottom(v) > bottom(v).
      EXPECT_GE(bottom[u], g.weight(u) + bottom[v] - 1e-12);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LevelsInvariantSweep,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

}  // namespace
