// Tests for normal/sculli: the paper's "Normal" estimator. Chains are
// exact (sums of normals), maxima match Clark, and duration moments match
// the 2-state/geometric algebra.

#include <gtest/gtest.h>

#include <cmath>

#include "core/exact.hpp"
#include "gen/cholesky.hpp"
#include "gen/random_dags.hpp"
#include "graph/csr.hpp"
#include "normal/sculli.hpp"
#include "test_helpers.hpp"

namespace {

using expmk::core::exact_two_state;
using expmk::core::FailureModel;
using expmk::core::RetryModel;
using expmk::normal::duration_moments_p;
using expmk::normal::sculli;
using expmk::test::uniform_scenario;

TEST(DurationMoments, TwoStateAlgebra) {
  const FailureModel m{0.1};
  const double a = 2.0;
  const double p = m.p_success(a);
  const auto d = duration_moments_p(a, p, RetryModel::TwoState);
  EXPECT_NEAR(d.mean, a * (2.0 - p), 1e-15);
  EXPECT_NEAR(d.var, a * a * p * (1.0 - p), 1e-15);
}

TEST(DurationMoments, GeometricAlgebra) {
  const FailureModel m{0.1};
  const double a = 2.0;
  const double p = m.p_success(a);
  const auto d = duration_moments_p(a, p, RetryModel::Geometric);
  EXPECT_NEAR(d.mean, a / p, 1e-12);
  EXPECT_NEAR(d.var, a * a * (1.0 - p) / (p * p), 1e-12);
}

TEST(DurationMoments, ZeroWeightAndErrors) {
  const auto d = duration_moments_p(0.0, 1.0, RetryModel::TwoState);
  EXPECT_DOUBLE_EQ(d.mean, 0.0);
  EXPECT_DOUBLE_EQ(d.var, 0.0);
  EXPECT_THROW((void)duration_moments_p(-1.0, 1.0, RetryModel::TwoState),
               std::invalid_argument);
}

TEST(Sculli, ChainIsExact) {
  // A chain has no max: Sculli's sum of moments is the exact expectation.
  const auto g = expmk::gen::uniform_chain(6, 0.4);
  const FailureModel m{0.15};
  const auto sc = uniform_scenario(g, m);
  expmk::exp::Workspace ws;
  const auto r = sculli(sc, ws);
  EXPECT_NEAR(r.expected_makespan(), exact_two_state(sc, ws), 1e-12);
  // Variance is the sum of task variances.
  const double p = m.p_success(0.4);
  EXPECT_NEAR(r.makespan.var, 6.0 * 0.4 * 0.4 * p * (1.0 - p), 1e-12);
}

TEST(Sculli, ZeroLambdaIsCriticalPath) {
  expmk::exp::Workspace ws;
  const auto g = expmk::gen::cholesky_dag(4);
  const auto r = sculli(uniform_scenario(g, FailureModel{0.0}), ws);
  EXPECT_NEAR(r.expected_makespan(), expmk::graph::critical_path_length(g),
              1e-9);
  EXPECT_NEAR(r.makespan.var, 0.0, 1e-12);
}

TEST(Sculli, TwoIndependentTasksMatchClarkDirectly) {
  expmk::graph::Dag g;
  g.add_task(1.0);
  g.add_task(0.9);
  const FailureModel m{0.3};
  const auto x =
      duration_moments_p(1.0, m.p_success(1.0), RetryModel::TwoState);
  const auto y =
      duration_moments_p(0.9, m.p_success(0.9), RetryModel::TwoState);
  const auto fold = expmk::prob::clark_max(x, y, 0.0);
  expmk::exp::Workspace ws;
  const auto r = sculli(uniform_scenario(g, m), ws);
  EXPECT_NEAR(r.expected_makespan(), fold.moments.mean, 1e-12);
  EXPECT_NEAR(r.makespan.var, fold.moments.var, 1e-12);
}

TEST(Sculli, EstimateAboveCriticalPath) {
  // E[max] >= max of means >= critical path built on mean durations >=
  // d(G): Sculli should never fall below the failure-free makespan.
  const auto g = expmk::gen::erdos_dag(30, 0.15, 3);
  const auto sc = uniform_scenario(g, FailureModel{0.05});
  expmk::exp::Workspace ws;
  EXPECT_GE(sculli(sc, ws).expected_makespan(),
            expmk::graph::critical_path_length(g) - 1e-9);
}

TEST(Sculli, ReasonablyCloseToExactOnSmallGraphs) {
  // Sculli is an approximation; on small graphs with modest lambda it
  // should land within a few percent of exact.
  const auto g = expmk::gen::erdos_dag(12, 0.3, 17);
  const auto sc = uniform_scenario(g, FailureModel{0.05});
  expmk::exp::Workspace ws;
  const double exact = exact_two_state(sc, ws);
  EXPECT_NEAR(sculli(sc, ws).expected_makespan(), exact, 0.05 * exact);
}

TEST(Sculli, GeometricModeShiftsUpward) {
  const auto g = expmk::gen::cholesky_dag(4);
  const FailureModel m{0.5};
  expmk::exp::Workspace ws;
  EXPECT_GT(
      sculli(uniform_scenario(g, m, RetryModel::Geometric), ws)
          .expected_makespan(),
      sculli(uniform_scenario(g, m), ws).expected_makespan());
}

TEST(Sculli, EmptyGraphThrows) {
  const auto sc = uniform_scenario(expmk::graph::Dag{}, FailureModel{0.1});
  expmk::exp::Workspace ws;
  EXPECT_THROW((void)sculli(sc, ws), std::invalid_argument);
}

}  // namespace
