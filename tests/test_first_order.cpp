// Tests for the paper's core contribution (Section IV): the closed-form
// first-order approximation. Checks the closed form against the naive
// per-task recompute, against analytic cases, and the O(lambda^2)
// approximation-order property against the exact oracle.

#include <gtest/gtest.h>

#include <cmath>

#include "core/exact.hpp"
#include "core/first_order.hpp"
#include "gen/cholesky.hpp"
#include "gen/lu.hpp"
#include "gen/qr.hpp"
#include "gen/random_dags.hpp"
#include "graph/csr.hpp"
#include "reference_estimators.hpp"
#include "test_helpers.hpp"

namespace {

using expmk::core::exact_two_state;
using expmk::core::FailureModel;
using expmk::core::first_order;
using expmk::ref::first_order_naive;
using expmk::test::uniform_scenario;

TEST(FirstOrder, ZeroLambdaGivesCriticalPath) {
  expmk::exp::Workspace ws;
  const auto g = expmk::test::diamond(1.0, 2.0, 3.0, 4.0);
  const auto r = first_order(uniform_scenario(g, FailureModel{0.0}), ws);
  EXPECT_DOUBLE_EQ(r.expected_makespan(), 8.0);
  EXPECT_DOUBLE_EQ(r.correction, 0.0);
}

TEST(FirstOrder, SingleTaskClosedForm) {
  expmk::exp::Workspace ws;
  // One task of weight a: E = a + lambda * a^2 (first order).
  expmk::graph::Dag g;
  g.add_task(2.0);
  const double lambda = 0.01;
  const auto r = first_order(uniform_scenario(g, FailureModel{lambda}), ws);
  EXPECT_NEAR(r.expected_makespan(), 2.0 + lambda * 4.0, 1e-15);
}

TEST(FirstOrder, ChainClosedForm) {
  expmk::exp::Workspace ws;
  // Chain of n tasks, weight a each: every task is critical, so
  // FO = n a + lambda a^2 n.
  const int n = 6;
  const double a = 0.5, lambda = 0.02;
  const auto g = expmk::gen::uniform_chain(n, a);
  const auto r = first_order(uniform_scenario(g, FailureModel{lambda}), ws);
  EXPECT_NEAR(r.expected_makespan(), n * a + lambda * a * a * n, 1e-12);
}

TEST(FirstOrder, ForkJoinOnlyCriticalBranchContributesFully) {
  expmk::exp::Workspace ws;
  // FORK(0) -> branches -> JOIN(0): branches b1 = 2 (critical), b2 = 1.
  // d(G) = 2. Doubling b1: d = 4 (delta 2); doubling b2: d = max(2, 2) = 2
  // (delta 0). FO = 2 + lambda * (2*2 + 1*0).
  expmk::graph::Dag g;
  const auto f = g.add_task(0.0);
  const auto j = g.add_task(0.0);
  const auto b1 = g.add_task(2.0);
  const auto b2 = g.add_task(1.0);
  g.add_edge(f, b1);
  g.add_edge(f, b2);
  g.add_edge(b1, j);
  g.add_edge(b2, j);
  const double lambda = 0.05;
  const auto r = first_order(uniform_scenario(g, FailureModel{lambda}), ws);
  EXPECT_NEAR(r.expected_makespan(), 2.0 + lambda * 4.0, 1e-12);
}

TEST(FirstOrder, NearCriticalBranchContributesPartially) {
  expmk::exp::Workspace ws;
  // Branches 2 and 1.5: doubling the short one reaches 3 > 2, delta = 1.
  expmk::graph::Dag g;
  const auto b1 = g.add_task(2.0);
  const auto b2 = g.add_task(1.5);
  (void)b1;
  (void)b2;
  const double lambda = 0.03;
  const auto r = first_order(uniform_scenario(g, FailureModel{lambda}), ws);
  // FO = 2 + lambda (2 * 2 + 1.5 * 1).
  EXPECT_NEAR(r.expected_makespan(), 2.0 + lambda * 5.5, 1e-12);
}

TEST(FirstOrder, MonotoneInLambdaAndAboveCriticalPath) {
  expmk::exp::Workspace ws;
  const auto g = expmk::gen::cholesky_dag(5);
  double prev = expmk::graph::critical_path_length(g);
  for (const double lambda : {0.001, 0.01, 0.1, 1.0}) {
    const auto r = first_order(uniform_scenario(g, FailureModel{lambda}), ws);
    EXPECT_GE(r.expected_makespan(), prev - 1e-12);
    prev = r.expected_makespan();
  }
}

// The headline property: closed form == naive recompute, everywhere.
class FirstOrderEquivalenceSweep
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FirstOrderEquivalenceSweep, ClosedFormMatchesNaive) {
  const auto seed = GetParam();
  const FailureModel m{0.01};
  expmk::exp::Workspace ws;
  for (const auto& g :
       {expmk::gen::erdos_dag(40, 0.15, seed),
        expmk::gen::layered_random(6, 5, 0.4, seed),
        expmk::gen::random_series_parallel(30, seed)}) {
    const double closed =
        first_order(uniform_scenario(g, m), ws).expected_makespan();
    const double naive = first_order_naive(g, m);
    EXPECT_NEAR(closed, naive, 1e-10 * std::max(1.0, naive));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FirstOrderEquivalenceSweep,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u,
                                           9u, 10u));

TEST(FirstOrder, ClosedFormMatchesNaiveOnFactorizations) {
  const FailureModel m{0.05};
  expmk::exp::Workspace ws;
  for (const auto& g :
       {expmk::gen::cholesky_dag(6), expmk::gen::lu_dag(5),
        expmk::gen::qr_dag(5)}) {
    EXPECT_NEAR(first_order(uniform_scenario(g, m), ws).expected_makespan(),
                first_order_naive(g, m), 1e-9);
  }
}

// |FO - exact| = O(lambda^2): halving lambda must shrink the error by
// about 4x (we allow [2.8, 5.5] for higher-order contamination).
TEST(FirstOrder, ErrorIsSecondOrderInLambda) {
  const auto g = expmk::gen::erdos_dag(12, 0.3, 99);
  const double l1 = 0.08, l2 = 0.04;
  const auto sc1 = uniform_scenario(g, FailureModel{l1});
  const auto sc2 = uniform_scenario(g, FailureModel{l2});
  expmk::exp::Workspace ws;
  const double e1 = std::fabs(first_order(sc1, ws).expected_makespan() -
                              exact_two_state(sc1, ws));
  const double e2 = std::fabs(first_order(sc2, ws).expected_makespan() -
                              exact_two_state(sc2, ws));
  ASSERT_GT(e1, 0.0);
  ASSERT_GT(e2, 0.0);
  const double ratio = e1 / e2;
  EXPECT_GT(ratio, 2.8) << "e1=" << e1 << " e2=" << e2;
  EXPECT_LT(ratio, 5.5) << "e1=" << e1 << " e2=" << e2;
}

TEST(FirstOrder, TinyLambdaNearExact) {
  const auto g = expmk::test::diamond(0.1, 0.2, 0.3, 0.1);
  const auto sc = uniform_scenario(g, FailureModel{1e-5});
  expmk::exp::Workspace ws;
  const double fo = first_order(sc, ws).expected_makespan();
  const double exact = exact_two_state(sc, ws);
  EXPECT_NEAR(fo, exact, 1e-9);
}

TEST(FirstOrder, ZeroWeightTasksContributeNothing) {
  expmk::exp::Workspace ws;
  expmk::graph::Dag g;
  const auto a = g.add_task(0.0);
  const auto b = g.add_task(1.0);
  g.add_edge(a, b);
  const auto r = first_order(uniform_scenario(g, FailureModel{0.1}), ws);
  EXPECT_NEAR(r.expected_makespan(), 1.0 + 0.1 * 1.0, 1e-12);
}

TEST(FirstOrder, AgreesWithSuppliedTopoOrder) {
  // The same DAG supplied with its task ids in reverse order: the
  // estimate does not depend on the numbering the caller chose.
  const auto g = expmk::gen::lu_dag(4);
  const expmk::graph::TaskId n = g.task_count();
  expmk::graph::Dag reversed;
  for (expmk::graph::TaskId i = 0; i < n; ++i) {
    reversed.add_task(g.weight(n - 1 - i));
  }
  for (expmk::graph::TaskId u = 0; u < n; ++u) {
    for (const auto v : g.successors(u)) {
      reversed.add_edge(n - 1 - u, n - 1 - v);
    }
  }
  const FailureModel m{0.02};
  expmk::exp::Workspace ws;
  EXPECT_NEAR(first_order(uniform_scenario(g, m), ws).expected_makespan(),
              first_order(uniform_scenario(reversed, m), ws)
                  .expected_makespan(),
              1e-12);
}

}  // namespace
