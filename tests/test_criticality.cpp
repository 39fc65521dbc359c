// Tests for core/criticality: deterministic slack and Monte-Carlo
// criticality probabilities.

#include <gtest/gtest.h>

#include "core/criticality.hpp"
#include "gen/cholesky.hpp"
#include "gen/random_dags.hpp"
#include "test_helpers.hpp"

namespace {

using expmk::core::criticality_probabilities;
using expmk::core::CriticalityConfig;
using expmk::core::FailureModel;
using expmk::core::slacks;
using expmk::test::uniform_scenario;

constexpr auto kGeometric = expmk::core::RetryModel::Geometric;

TEST(Slack, DiamondValues) {
  const auto g = expmk::test::diamond(1.0, 2.0, 3.0, 4.0);  // d = 8 via A-C-D
  const auto s = slacks(g);
  EXPECT_DOUBLE_EQ(s[g.find_by_name("A")], 0.0);
  EXPECT_DOUBLE_EQ(s[g.find_by_name("C")], 0.0);
  EXPECT_DOUBLE_EQ(s[g.find_by_name("D")], 0.0);
  EXPECT_DOUBLE_EQ(s[g.find_by_name("B")], 1.0);  // 8 - (1+2+4)
}

TEST(Slack, CriticalTasksAreZeroSlack) {
  const auto g = expmk::gen::cholesky_dag(5);
  std::size_t critical = 0;
  for (const double s : slacks(g)) {
    EXPECT_GE(s, -1e-12);
    if (s <= 1e-12) ++critical;
  }
  // A critical path has at least depth-many tasks.
  EXPECT_GE(critical, 5u);
}

TEST(Criticality, ZeroLambdaMatchesDeterministicSlack) {
  const auto g = expmk::test::diamond(1.0, 2.0, 3.0, 4.0);
  CriticalityConfig cfg;
  cfg.trials = 200;
  expmk::exp::Workspace ws;
  const auto p = criticality_probabilities(
      uniform_scenario(g, FailureModel{0.0}, kGeometric), cfg, ws);
  EXPECT_DOUBLE_EQ(p[g.find_by_name("A")], 1.0);
  EXPECT_DOUBLE_EQ(p[g.find_by_name("C")], 1.0);
  EXPECT_DOUBLE_EQ(p[g.find_by_name("B")], 0.0);
}

TEST(Criticality, FailuresMakeSlackTasksSometimesCritical) {
  // B (weight 2, slack 1) becomes critical when it fails (weight 4 > 3).
  const auto g = expmk::test::diamond(1.0, 2.0, 3.0, 4.0);
  // Sizeable failure probability.
  const auto sc = uniform_scenario(g, FailureModel{0.3}, kGeometric);
  CriticalityConfig cfg;
  cfg.trials = 20'000;
  expmk::exp::Workspace ws;
  const auto p = criticality_probabilities(sc, cfg, ws);
  const auto B = g.find_by_name("B");
  const auto C = g.find_by_name("C");
  EXPECT_GT(p[B], 0.05);
  EXPECT_LT(p[B], 0.9);
  EXPECT_GT(p[C], p[B]);  // C stays the likelier critical branch
  // A and D are on every path.
  EXPECT_DOUBLE_EQ(p[g.find_by_name("A")], 1.0);
  EXPECT_DOUBLE_EQ(p[g.find_by_name("D")], 1.0);
}

TEST(Criticality, ProbabilitiesAreProbabilities) {
  const auto g = expmk::gen::erdos_dag(25, 0.2, 7);
  CriticalityConfig cfg;
  cfg.trials = 2'000;
  expmk::exp::Workspace ws;
  const auto p = criticality_probabilities(
      uniform_scenario(g, FailureModel{0.1}, kGeometric), cfg, ws);
  for (const double x : p) {
    EXPECT_GE(x, 0.0);
    EXPECT_LE(x, 1.0);
  }
}

TEST(Criticality, Deterministic) {
  const auto g = expmk::gen::cholesky_dag(3);
  CriticalityConfig cfg;
  cfg.trials = 500;
  const auto sc = uniform_scenario(g, FailureModel{0.1}, kGeometric);
  expmk::exp::Workspace ws;
  const auto a = criticality_probabilities(sc, cfg, ws);
  const auto b = criticality_probabilities(sc, cfg, ws);
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_DOUBLE_EQ(a[i], b[i]);
}

TEST(Criticality, BernoulliMatchesHandComputedProbability) {
  // Two independent tasks 1.0 and 0.9 with two-state failures: task 2 is
  // critical iff it fails and task 1 does not (1.8 > 1.0), or both fail
  // (1.8 < 2.0: then task 1 is the max — so only "fails & other ok").
  expmk::graph::Dag g;
  g.add_task(1.0);
  g.add_task(0.9);
  const FailureModel m{0.2};
  const double p1 = m.p_fail(1.0), p2 = m.p_fail(0.9);
  const double expected = (1.0 - p1) * p2;  // t2 critical cases
  CriticalityConfig cfg;
  cfg.trials = 100'000;
  expmk::exp::Workspace ws;
  const auto p = criticality_probabilities(uniform_scenario(g, m), cfg, ws);
  EXPECT_NEAR(p[1], expected, 0.01);
  EXPECT_NEAR(p[0], 1.0 - expected, 0.01);
}

}  // namespace
