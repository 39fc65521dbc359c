// Unit tests for the CSR longest-path kernels: the d(G) computation every
// estimator builds on, cross-checked against a brute-force path
// enumeration.

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <vector>

#include "gen/random_dags.hpp"
#include "graph/csr.hpp"
#include "test_helpers.hpp"

namespace {

using expmk::graph::CsrDag;
using expmk::graph::critical_path_length;
using expmk::graph::longest_from;

/// Weights given in Dag id order, permuted into position order.
std::vector<double> by_position(const CsrDag& csr,
                                const std::vector<double>& by_id) {
  std::vector<double> out(by_id.size());
  for (std::uint32_t pos = 0; pos < out.size(); ++pos) {
    out[pos] = by_id[csr.original_id(pos)];
  }
  return out;
}

/// Longest paths from Dag task `source`, in Dag id order.
std::vector<double> longest_from_task(const expmk::graph::Dag& g,
                                      expmk::graph::TaskId source) {
  const CsrDag csr(g);
  const std::uint32_t src = csr.position_of(source);
  std::vector<double> dist(csr.task_count());
  longest_from(csr, src, csr.weights(), dist);
  std::vector<double> out(csr.task_count());
  for (std::uint32_t pos = 0; pos < out.size(); ++pos) {
    // Positions below the source are untouched by the kernel: none of
    // them is reachable.
    out[csr.original_id(pos)] =
        pos < src ? -std::numeric_limits<double>::infinity() : dist[pos];
  }
  return out;
}

TEST(LongestPath, DiamondTakesHeavierBranch) {
  const auto g = expmk::test::diamond(1.0, 2.0, 3.0, 1.0);
  EXPECT_DOUBLE_EQ(critical_path_length(g), 1.0 + 3.0 + 1.0);
}

TEST(LongestPath, ChainSumsAllWeights) {
  const auto g = expmk::gen::uniform_chain(10, 0.5);
  EXPECT_DOUBLE_EQ(critical_path_length(g), 5.0);
}

TEST(LongestPath, IndependentTasksTakeMaximum) {
  auto g = expmk::graph::Dag();
  g.add_task(1.0);
  g.add_task(7.0);
  g.add_task(3.0);
  EXPECT_DOUBLE_EQ(critical_path_length(g), 7.0);
}

TEST(LongestPath, CustomWeightsOverrideDagWeights) {
  const auto g = expmk::test::diamond(1.0, 2.0, 3.0, 1.0);
  const CsrDag csr(g);
  const std::vector<double> w = {1.0, 10.0, 3.0, 1.0};  // B now heavier
  std::vector<double> finish(csr.task_count());
  EXPECT_DOUBLE_EQ(critical_path_length(csr, by_position(csr, w), finish),
                   12.0);
}

TEST(LongestPath, MismatchedSizesThrow) {
  const auto g = expmk::test::diamond();
  const CsrDag csr(g);
  const std::vector<double> wrong = {1.0, 2.0};
  std::vector<double> finish(csr.task_count());
  EXPECT_THROW((void)critical_path_length(csr, wrong, finish),
               std::invalid_argument);
  std::vector<double> short_finish(2);
  EXPECT_THROW(
      (void)critical_path_length(csr, csr.weights(), short_finish),
      std::invalid_argument);
}

TEST(LongestPath, LongestFromComputesInclusiveLengths) {
  const auto g = expmk::test::diamond(1.0, 2.0, 3.0, 4.0);
  const auto lp = longest_from_task(g, g.find_by_name("A"));
  EXPECT_DOUBLE_EQ(lp[g.find_by_name("A")], 1.0);
  EXPECT_DOUBLE_EQ(lp[g.find_by_name("B")], 3.0);
  EXPECT_DOUBLE_EQ(lp[g.find_by_name("C")], 4.0);
  EXPECT_DOUBLE_EQ(lp[g.find_by_name("D")], 8.0);  // A-C-D
}

TEST(LongestPath, LongestFromUnreachableIsMinusInfinity) {
  const auto g = expmk::test::n_graph();
  const auto lp = longest_from_task(g, g.find_by_name("B"));
  EXPECT_EQ(lp[g.find_by_name("C")], -std::numeric_limits<double>::infinity());
  EXPECT_GT(lp[g.find_by_name("D")], 0.0);
}

// Property sweep: DP result equals brute-force enumeration on random DAGs.
class LongestPathSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LongestPathSweep, MatchesBruteForce) {
  const auto seed = GetParam();
  const auto g = expmk::gen::erdos_dag(12, 0.25, seed);
  const double dp = critical_path_length(g);
  const double brute = expmk::test::brute_force_longest_path(g, g.weights());
  EXPECT_NEAR(dp, brute, 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LongestPathSweep,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u));

}  // namespace
