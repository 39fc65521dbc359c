// Tests for the second-order extension (the paper conclusion's proposed
// follow-up): exactness order in lambda, consistency with the first order,
// and the geometric-model variant.

#include <gtest/gtest.h>

#include <cmath>

#include "core/exact.hpp"
#include "core/first_order.hpp"
#include "core/second_order.hpp"
#include "gen/random_dags.hpp"
#include "test_helpers.hpp"

namespace {

using expmk::core::exact_geometric;
using expmk::core::exact_two_state;
using expmk::core::FailureModel;
using expmk::core::first_order;
using expmk::core::RetryModel;
using expmk::core::second_order;
using expmk::test::uniform_scenario;

TEST(SecondOrder, ZeroLambdaGivesCriticalPath) {
  expmk::exp::Workspace ws;
  const auto g = expmk::test::diamond(1.0, 2.0, 3.0, 4.0);
  const auto r = second_order(uniform_scenario(g, FailureModel{0.0}), ws);
  EXPECT_DOUBLE_EQ(r.expected_makespan, 8.0);
  EXPECT_DOUBLE_EQ(r.first_order, 8.0);
}

TEST(SecondOrder, SingleTaskMatchesAlgebra) {
  expmk::exp::Workspace ws;
  // One task of weight a, 2-state: exact E = a (2 - p) with p = e^{-la}.
  // Second order expands it to O(l^3): E2 = a + l a^2 - l^2 a^3 / 2.
  expmk::graph::Dag g;
  g.add_task(2.0);
  const double a = 2.0, lambda = 0.01;
  const auto r = second_order(uniform_scenario(g, FailureModel{lambda}), ws);
  EXPECT_NEAR(r.expected_makespan,
              a + lambda * a * a - lambda * lambda * a * a * a / 2.0, 1e-12);
}

TEST(SecondOrder, ReportsFirstOrderConsistently) {
  const auto g = expmk::gen::erdos_dag(20, 0.2, 3);
  const auto sc = uniform_scenario(g, FailureModel{0.02});
  expmk::exp::Workspace ws;
  const auto so = second_order(sc, ws);
  const auto fo = first_order(sc, ws);
  EXPECT_NEAR(so.first_order, fo.expected_makespan(), 1e-10);
  EXPECT_NEAR(so.critical_path, fo.critical_path, 1e-12);
}

// |SO - exact| = O(lambda^3): halving lambda shrinks the error ~8x.
TEST(SecondOrder, ErrorIsThirdOrderInLambda) {
  const auto g = expmk::gen::erdos_dag(12, 0.3, 99);
  const double l1 = 0.1, l2 = 0.05;
  const auto sc1 = uniform_scenario(g, FailureModel{l1});
  const auto sc2 = uniform_scenario(g, FailureModel{l2});
  expmk::exp::Workspace ws;
  const double e1 = std::fabs(second_order(sc1, ws).expected_makespan -
                              exact_two_state(sc1, ws));
  const double e2 = std::fabs(second_order(sc2, ws).expected_makespan -
                              exact_two_state(sc2, ws));
  ASSERT_GT(e1, 0.0);
  ASSERT_GT(e2, 0.0);
  const double ratio = e1 / e2;
  EXPECT_GT(ratio, 5.5) << "e1=" << e1 << " e2=" << e2;
  EXPECT_LT(ratio, 12.0) << "e1=" << e1 << " e2=" << e2;
}

// Second order is strictly more accurate than first order for moderate
// lambda on every family we test.
class SecondOrderAccuracySweep
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SecondOrderAccuracySweep, BeatsFirstOrderAgainstExact) {
  const auto g = expmk::gen::erdos_dag(11, 0.3, GetParam());
  const auto sc = uniform_scenario(g, FailureModel{0.06});
  expmk::exp::Workspace ws;
  const double exact = exact_two_state(sc, ws);
  const double fo_err =
      std::fabs(first_order(sc, ws).expected_makespan() - exact);
  const double so_err =
      std::fabs(second_order(sc, ws).expected_makespan - exact);
  EXPECT_LE(so_err, fo_err + 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SecondOrderAccuracySweep,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u));

TEST(SecondOrder, GeometricVariantTracksGeometricExact) {
  const auto g = expmk::gen::erdos_dag(8, 0.3, 42);
  const FailureModel m{0.05};
  const auto geo = uniform_scenario(g, m, RetryModel::Geometric);
  const auto two_state = uniform_scenario(g, m);
  expmk::exp::Workspace ws;
  const double exact_geo = exact_geometric(geo, 6, ws);
  const double exact_ts = exact_two_state(two_state, ws);
  const double so_geo = second_order(geo, ws).expected_makespan;
  const double so_ts = second_order(two_state, ws).expected_makespan;
  // Each variant should be closer to its own model's exact value.
  EXPECT_LT(std::fabs(so_geo - exact_geo), std::fabs(so_ts - exact_geo));
  EXPECT_LT(std::fabs(so_ts - exact_ts), std::fabs(so_geo - exact_ts));
}

TEST(SecondOrder, GeometricExceedsTwoState) {
  // Extra re-executions can only lengthen the expected makespan.
  const auto g = expmk::gen::erdos_dag(15, 0.25, 7);
  const FailureModel m{0.05};
  expmk::exp::Workspace ws;
  EXPECT_GE(
      second_order(uniform_scenario(g, m, RetryModel::Geometric), ws)
          .expected_makespan,
      second_order(uniform_scenario(g, m), ws).expected_makespan);
}

TEST(SecondOrder, HandlesUnorderedPairsBothDirections) {
  // Pair coverage regression test: a graph where the higher-id task
  // reaches the lower-id one (construction order reversed).
  expmk::graph::Dag g;
  const auto late = g.add_task("late", 1.0);   // id 0
  const auto early = g.add_task("early", 1.0); // id 1
  g.add_edge(early, late);                     // 1 -> 0: j reaches i
  const auto sc = uniform_scenario(g, FailureModel{0.05});
  expmk::exp::Workspace ws;
  const double exact = exact_two_state(sc, ws);
  EXPECT_NEAR(second_order(sc, ws).expected_makespan, exact, 5e-4);
  // And specifically closer than first order.
  EXPECT_LT(std::fabs(second_order(sc, ws).expected_makespan - exact),
            std::fabs(first_order(sc, ws).expected_makespan() - exact) + 1e-15);
}

TEST(SecondOrder, DiamondAgainstExactSmallLambda) {
  const auto g = expmk::test::diamond(0.3, 0.2, 0.4, 0.1);
  const auto sc = uniform_scenario(g, FailureModel{0.01});
  expmk::exp::Workspace ws;
  EXPECT_NEAR(second_order(sc, ws).expected_makespan, exact_two_state(sc, ws),
              1e-6);
}

}  // namespace
