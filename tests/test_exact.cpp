// Tests for the exact enumeration oracles themselves (they back every
// approximation test, so they get their own analytic validation).

#include <gtest/gtest.h>

#include <cmath>

#include "core/exact.hpp"
#include "gen/random_dags.hpp"
#include "test_helpers.hpp"

namespace {

using expmk::core::exact_geometric;
using expmk::core::exact_two_state;
using expmk::core::exact_two_state_distribution;
using expmk::core::FailureModel;
using expmk::test::uniform_scenario;

TEST(Exact, SingleTaskClosedForm) {
  expmk::exp::Workspace ws;
  expmk::graph::Dag g;
  g.add_task(2.0);
  const double lambda = 0.1;
  const double p = std::exp(-lambda * 2.0);
  EXPECT_NEAR(exact_two_state(uniform_scenario(g, FailureModel{lambda}), ws),
              2.0 * p + 4.0 * (1.0 - p), 1e-14);
}

TEST(Exact, ChainIsSumOfExpectations) {
  expmk::exp::Workspace ws;
  // On a chain the makespan is the SUM of the 2-state durations, so the
  // expectation is the sum of per-task expectations (no max involved).
  const auto g = expmk::gen::uniform_chain(5, 0.4);
  const double lambda = 0.2;
  const double p = std::exp(-lambda * 0.4);
  const double per_task = 0.4 * p + 0.8 * (1.0 - p);
  const auto sc = uniform_scenario(g, FailureModel{lambda});
  EXPECT_NEAR(exact_two_state(sc, ws), 5.0 * per_task,
              1e-12);
}

TEST(Exact, TwoIndependentTasksMaxFormula) {
  expmk::exp::Workspace ws;
  // Tasks a=1, b=0.8: E[max] enumerated by hand over 4 outcomes.
  expmk::graph::Dag g;
  g.add_task(1.0);
  g.add_task(0.8);
  const double lambda = 0.3;
  const double pa = std::exp(-lambda * 1.0), pb = std::exp(-lambda * 0.8);
  const double expect = pa * pb * std::max(1.0, 0.8) +
                        pa * (1 - pb) * std::max(1.0, 1.6) +
                        (1 - pa) * pb * std::max(2.0, 0.8) +
                        (1 - pa) * (1 - pb) * std::max(2.0, 1.6);
  const auto sc = uniform_scenario(g, FailureModel{lambda});
  EXPECT_NEAR(exact_two_state(sc, ws), expect, 1e-14);
}

TEST(Exact, ZeroLambdaIsCriticalPath) {
  expmk::exp::Workspace ws;
  const auto g = expmk::test::diamond(1.0, 2.0, 3.0, 4.0);
  const auto sc = uniform_scenario(g, FailureModel{0.0});
  EXPECT_DOUBLE_EQ(exact_two_state(sc, ws), 8.0);
}

TEST(Exact, DistributionMatchesMeanAndMass) {
  const auto g = expmk::test::diamond(0.5, 0.25, 0.75, 0.5);
  const auto sc = uniform_scenario(g, FailureModel{0.2});
  const auto dist = exact_two_state_distribution(sc);
  expmk::exp::Workspace ws;
  EXPECT_NEAR(dist.mean(), exact_two_state(sc, ws), 1e-12);
  double total = 0.0;
  for (const auto& at : dist.atoms()) total += at.prob;
  EXPECT_NEAR(total, 1.0, 1e-12);
  // Extremes: all-success and all-fail makespans.
  EXPECT_DOUBLE_EQ(dist.min(), 1.75);  // 0.5 + 0.75 + 0.5
  EXPECT_DOUBLE_EQ(dist.max(), 3.5);
}

TEST(Exact, RejectsOversizedGraphs) {
  expmk::exp::Workspace ws;
  const auto g = expmk::gen::independent_tasks(30, 1);
  const auto sc = uniform_scenario(g, FailureModel{0.01});
  EXPECT_THROW((void)exact_two_state(sc, ws),
               std::invalid_argument);
}

TEST(Exact, GeometricReducesToTwoStateAtCapTwo) {
  const auto g = expmk::test::diamond(0.4, 0.3, 0.5, 0.2);
  const auto sc = uniform_scenario(g, FailureModel{0.1});
  expmk::exp::Workspace ws;
  // With max_executions = 2 the truncated geometric IS the 2-state law.
  EXPECT_NEAR(exact_geometric(sc, 2, ws), exact_two_state(sc, ws), 1e-12);
}

TEST(Exact, GeometricIncreasesWithCapAndConverges) {
  const auto g = expmk::test::diamond(0.4, 0.3, 0.5, 0.2);
  // Large lambda so retries matter.
  const auto sc = uniform_scenario(g, FailureModel{0.8});
  expmk::exp::Workspace ws;
  const double e2 = exact_geometric(sc, 2, ws);
  const double e3 = exact_geometric(sc, 3, ws);
  const double e5 = exact_geometric(sc, 5, ws);
  const double e7 = exact_geometric(sc, 7, ws);
  EXPECT_LT(e2, e3);
  EXPECT_LT(e3, e5);
  EXPECT_LE(e5, e7);
  // Convergence: increments shrink geometrically.
  EXPECT_LT(e7 - e5, (e3 - e2) * 0.5);
}

TEST(Exact, GeometricRejectsHugeStateSpaces) {
  const auto sc = uniform_scenario(expmk::gen::independent_tasks(20, 2),
                                   FailureModel{0.1});
  expmk::exp::Workspace ws;
  EXPECT_THROW((void)exact_geometric(sc, 8, ws), std::invalid_argument);
  EXPECT_THROW((void)exact_geometric(sc, 0, ws), std::invalid_argument);
}

}  // namespace
