// Tests for spgraph/sp_reduce (the flat engine's Scenario entry): series/
// parallel rewriting, SP recognition, and exactness of the SP evaluation
// against the enumeration oracle — plus the AoA layout of the test-only
// reference network (tests/sp_reference.hpp) the flat engine is pinned to.

#include <gtest/gtest.h>

#include <cmath>

#include "core/exact.hpp"
#include "core/failure_model.hpp"
#include "exp/workspace.hpp"
#include "gen/cholesky.hpp"
#include "gen/random_dags.hpp"
#include "graph/validate.hpp"
#include "scenario/scenario.hpp"
#include "sp_reference.hpp"
#include "spgraph/sp_reduce.hpp"
#include "test_helpers.hpp"

namespace {

using expmk::core::FailureModel;
using expmk::prob::DiscreteDistribution;
using expmk::scenario::FailureSpec;
using expmk::scenario::Scenario;
using expmk::sp_ref::ArcNetwork;
using expmk::test::uniform_scenario;

std::vector<DiscreteDistribution> two_state_dists(const expmk::graph::Dag& g,
                                                  double lambda) {
  const FailureModel m{lambda};
  std::vector<DiscreteDistribution> out;
  out.reserve(g.task_count());
  for (expmk::graph::TaskId i = 0; i < g.task_count(); ++i) {
    const double a = g.weight(i);
    out.push_back(a > 0.0
                      ? DiscreteDistribution::two_state(a, m.p_success(a))
                      : DiscreteDistribution::point(0.0));
  }
  return out;
}

/// The flat SP reduction of `g` under uniform rate `lambda`; the makespan
/// law lands in `law` when the graph is SP.
expmk::sp::SpFlatEvaluation reduce(const expmk::graph::Dag& g, double lambda,
                                   DiscreteDistribution* law = nullptr,
                                   std::size_t max_atoms = 0) {
  const Scenario sc = Scenario::compile(g, FailureSpec::uniform(lambda));
  expmk::exp::Workspace ws;
  return expmk::sp::evaluate_sp_flat(sc, max_atoms, ws, law);
}

TEST(ArcNetwork, FromDagLayout) {
  const auto g = expmk::test::diamond();
  auto net = ArcNetwork::from_dag(g, two_state_dists(g, 0.1));
  // 4 task arcs + 4 precedence arcs + 1 source feed + 1 sink feed.
  EXPECT_EQ(net.arc_count(), 10u);
  EXPECT_EQ(net.node_count(), 2 * 4 + 2);
  EXPECT_EQ(net.out_degree(net.source()), 1u);
  EXPECT_EQ(net.in_degree(net.sink()), 1u);
}

TEST(ArcNetwork, DistCountMismatchThrows) {
  const auto g = expmk::test::diamond();
  EXPECT_THROW(ArcNetwork::from_dag(g, {}), std::invalid_argument);
}

TEST(ArcNetwork, AddRemoveRetarget) {
  const auto g = expmk::test::diamond();
  auto net = ArcNetwork::from_dag(g, two_state_dists(g, 0.1));
  const auto n1 = net.add_node();
  const auto id = net.add_arc(net.source(), n1, DiscreteDistribution{});
  EXPECT_EQ(net.in_degree(n1), 1u);
  net.retarget_arc(id, net.sink());
  EXPECT_EQ(net.in_degree(n1), 0u);
  const auto before = net.arc_count();
  net.remove_arc(id);
  EXPECT_EQ(net.arc_count(), before - 1);
  net.remove_arc(id);  // idempotent
  EXPECT_EQ(net.arc_count(), before - 1);
}

TEST(SpReduce, SingleTaskReducesToItsDistribution) {
  expmk::graph::Dag g;
  g.add_task(1.0);
  const auto eval = reduce(g, 0.2);
  EXPECT_TRUE(eval.is_series_parallel);
  const double p = std::exp(-0.2);
  EXPECT_NEAR(eval.mean, 1.0 * p + 2.0 * (1.0 - p), 1e-12);
}

TEST(SpReduce, ChainConvolves) {
  const auto g = expmk::gen::uniform_chain(4, 0.5);
  DiscreteDistribution law;
  const auto eval = reduce(g, 0.3, &law);
  EXPECT_TRUE(eval.is_series_parallel);
  expmk::exp::Workspace ws;
  EXPECT_NEAR(eval.mean,
              expmk::core::exact_two_state(
                  uniform_scenario(g, FailureModel{0.3}), ws),
              1e-12);
  // Chain of 4 two-state tasks: support has 5 distinct sums.
  EXPECT_EQ(law.size(), 5u);
}

TEST(SpReduce, DiamondIsSeriesParallel) {
  const auto g = expmk::test::diamond(0.4, 0.3, 0.5, 0.2);
  const FailureModel m{0.25};
  const auto eval = reduce(g, m.lambda);
  EXPECT_TRUE(eval.is_series_parallel);
  expmk::exp::Workspace ws;
  EXPECT_NEAR(eval.mean,
              expmk::core::exact_two_state(uniform_scenario(g, m), ws), 1e-12);
}

TEST(SpReduce, NGraphIsNotSeriesParallel) {
  EXPECT_FALSE(reduce(expmk::test::n_graph(), 0.1).is_series_parallel);
}

TEST(SpReduce, WheatstoneBridgeIsNotSeriesParallel) {
  EXPECT_FALSE(
      reduce(expmk::gen::wheatstone_bridge(), 0.1).is_series_parallel);
}

TEST(SpReduce, CholeskyLikeGraphsAreNotSp) {
  // The paper attributes Dodin's poor accuracy to these DAGs being far
  // from series-parallel; verify they indeed are not SP.
  EXPECT_FALSE(reduce(expmk::gen::cholesky_dag(4), 0.1).is_series_parallel);
}

// Property: every random_series_parallel graph is recognized as SP and
// its evaluated mean matches enumeration (for small sizes).
class SpRandomSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SpRandomSweep, RecognizedAndExact) {
  const auto seed = GetParam();
  const auto g = expmk::gen::random_series_parallel(12, seed);
  const FailureModel m{0.15};
  const auto eval = reduce(g, m.lambda);
  ASSERT_TRUE(eval.is_series_parallel) << "seed " << seed;
  expmk::exp::Workspace ws;
  EXPECT_NEAR(eval.mean,
              expmk::core::exact_two_state(uniform_scenario(g, m), ws), 1e-10)
      << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, SpRandomSweep,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u,
                                           9u, 10u));

TEST(SpReduce, LargeSpGraphReducesWithBudget) {
  const auto g = expmk::gen::random_series_parallel(300, 77);
  DiscreteDistribution law;
  const auto eval = reduce(g, 0.05, &law, /*max_atoms=*/64);
  EXPECT_TRUE(eval.is_series_parallel);
  EXPECT_LE(law.size(), 64u);
  EXPECT_GT(eval.mean, 0.0);
}

TEST(SpReduce, StatsCountReductions) {
  const auto g = expmk::gen::uniform_chain(4, 0.5);
  const auto stats = reduce(g, 0.3).stats;
  EXPECT_TRUE(stats.reduced_to_single_arc);
  EXPECT_GT(stats.series, 0u);
  EXPECT_EQ(stats.parallel, 0u);  // a chain needs no parallel merges
}

}  // namespace
