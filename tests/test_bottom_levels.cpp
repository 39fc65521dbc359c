// Tests for core/bottom_levels: failure-aware bottom levels (the
// scheduling-priority quantity the paper motivates).

#include <gtest/gtest.h>

#include "core/bottom_levels.hpp"
#include "core/first_order.hpp"
#include "gen/cholesky.hpp"
#include "gen/lu.hpp"
#include "gen/random_dags.hpp"
#include "sched/priorities.hpp"
#include "test_helpers.hpp"

namespace {

using expmk::core::failure_aware_bottom_level;
using expmk::core::failure_aware_bottom_levels;
using expmk::core::FailureModel;
using expmk::test::uniform_scenario;

/// Failure-free bottom levels in Dag id order (the classic CP priority).
std::vector<double> classic_bottom_levels(const expmk::graph::Dag& g) {
  return expmk::sched::priorities(uniform_scenario(g, FailureModel{0.0}),
                                  expmk::sched::PriorityKind::BottomLevel);
}

TEST(FailureAwareBottomLevels, ZeroLambdaEqualsClassicBottomLevels) {
  const auto g = expmk::gen::cholesky_dag(4);
  const auto classic = classic_bottom_levels(g);
  const auto aware =
      failure_aware_bottom_levels(uniform_scenario(g, FailureModel{0.0}));
  ASSERT_EQ(classic.size(), aware.size());
  for (std::size_t i = 0; i < classic.size(); ++i) {
    EXPECT_DOUBLE_EQ(aware[i], classic[i]);
  }
}

TEST(FailureAwareBottomLevels, AlwaysAtLeastClassic) {
  const auto g = expmk::gen::erdos_dag(30, 0.2, 5);
  const auto classic = classic_bottom_levels(g);
  const auto aware =
      failure_aware_bottom_levels(uniform_scenario(g, FailureModel{0.05}));
  for (std::size_t i = 0; i < classic.size(); ++i) {
    EXPECT_GE(aware[i], classic[i] - 1e-12);
  }
}

TEST(FailureAwareBottomLevels, ExitTaskClosedForm) {
  // An exit task's level is a + lambda a^2 (only itself can fail).
  const auto g = expmk::test::diamond(1.0, 2.0, 3.0, 4.0);
  const double lambda = 0.01;
  const auto aware =
      failure_aware_bottom_levels(uniform_scenario(g, FailureModel{lambda}));
  const auto D = g.find_by_name("D");
  EXPECT_NEAR(aware[D], 4.0 + lambda * 16.0, 1e-12);
}

TEST(FailureAwareBottomLevels, EntryEqualsFirstOrderOfWholeGraph) {
  // For a single-entry DAG whose entry reaches everything, the entry's
  // failure-aware bottom level is exactly the first-order expected
  // makespan of the whole graph.
  const auto g = expmk::gen::cholesky_dag(5);
  ASSERT_EQ(g.entry_tasks().size(), 1u);
  const FailureModel m{0.02};
  const auto aware = failure_aware_bottom_levels(uniform_scenario(g, m));
  expmk::exp::Workspace ws;
  const auto fo = expmk::core::first_order(uniform_scenario(g, m), ws);
  EXPECT_NEAR(aware[g.entry_tasks()[0]], fo.expected_makespan(), 1e-9);
}

TEST(FailureAwareBottomLevels, SingleTaskVariantAgrees) {
  const auto g = expmk::gen::lu_dag(4);
  const auto sc = uniform_scenario(g, FailureModel{0.03});
  const auto all = failure_aware_bottom_levels(sc);
  for (const expmk::graph::TaskId t :
       {expmk::graph::TaskId{0}, expmk::graph::TaskId{5},
        static_cast<expmk::graph::TaskId>(g.task_count() - 1)}) {
    EXPECT_NEAR(failure_aware_bottom_level(sc, t), all[t], 1e-12);
  }
}

TEST(FailureAwareBottomLevels, MonotoneAlongEdges) {
  // Like classic bottom levels, aware levels decrease along edges by at
  // least the task's own weight.
  const auto g = expmk::gen::erdos_dag(25, 0.2, 9);
  const auto aware =
      failure_aware_bottom_levels(uniform_scenario(g, FailureModel{0.04}));
  for (expmk::graph::TaskId u = 0; u < g.task_count(); ++u) {
    for (const auto v : g.successors(u)) {
      EXPECT_GE(aware[u], aware[v] + g.weight(u) - 1e-9);
    }
  }
}

TEST(FailureAwareBottomLevels, CanReorderPriorities) {
  // Construct a graph where classic bottom levels tie but failure-aware
  // ones do not: branch X is one task of weight 2; branch Y is two tasks
  // of weight 1. Classic levels: both 2. First-order corrections differ:
  // X: lambda * 2*2 = 4 lambda; Y: lambda * (1*1 + 1*1) = 2 lambda.
  expmk::graph::Dag g;
  const auto x = g.add_task("X", 2.0);
  const auto y1 = g.add_task("Y1", 1.0);
  const auto y2 = g.add_task("Y2", 1.0);
  g.add_edge(y1, y2);
  const double lambda = 0.01;
  const auto aware =
      failure_aware_bottom_levels(uniform_scenario(g, FailureModel{lambda}));
  EXPECT_NEAR(aware[x], 2.0 + lambda * 4.0, 1e-12);
  EXPECT_NEAR(aware[y1], 2.0 + lambda * 2.0, 1e-12);
  EXPECT_GT(aware[x], aware[y1]);  // failure-awareness broke the tie
}

}  // namespace
