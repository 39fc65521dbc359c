// Unit tests for graph/reachability: bitset closure, descendant counts and
// transitive reduction.

#include <gtest/gtest.h>

#include "gen/cholesky.hpp"
#include "gen/random_dags.hpp"
#include "graph/reachability.hpp"
#include "graph/csr.hpp"
#include "graph/topological.hpp"
#include "test_helpers.hpp"

namespace {

using expmk::graph::Reachability;
using expmk::graph::redundant_edge_count;
using expmk::graph::transitive_reduction;

TEST(Reachability, DiamondPairs) {
  const auto g = expmk::test::diamond();
  const Reachability r(g);
  const auto A = g.find_by_name("A"), B = g.find_by_name("B"),
             C = g.find_by_name("C"), D = g.find_by_name("D");
  EXPECT_TRUE(r.reaches(A, B));
  EXPECT_TRUE(r.reaches(A, D));
  EXPECT_TRUE(r.reaches(B, D));
  EXPECT_FALSE(r.reaches(B, C));
  EXPECT_FALSE(r.reaches(D, A));
  EXPECT_FALSE(r.reaches(A, A));  // irreflexive by convention
  EXPECT_TRUE(r.comparable(A, D));
  EXPECT_FALSE(r.comparable(B, C));
}

TEST(Reachability, DescendantCounts) {
  const auto g = expmk::test::diamond();
  const Reachability r(g);
  EXPECT_EQ(r.descendant_count(g.find_by_name("A")), 3u);
  EXPECT_EQ(r.descendant_count(g.find_by_name("D")), 0u);
}

TEST(Reachability, MatchesDfsOnRandomGraphs) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    const auto g = expmk::gen::erdos_dag(40, 0.1, seed);
    const Reachability r(g);
    // DFS reference for a few source vertices.
    for (expmk::graph::TaskId s = 0; s < 10; ++s) {
      std::vector<bool> seen(g.task_count(), false);
      std::vector<expmk::graph::TaskId> stack{s};
      while (!stack.empty()) {
        const auto v = stack.back();
        stack.pop_back();
        for (const auto w : g.successors(v)) {
          if (!seen[w]) {
            seen[w] = true;
            stack.push_back(w);
          }
        }
      }
      for (expmk::graph::TaskId t = 0; t < g.task_count(); ++t) {
        EXPECT_EQ(r.reaches(s, t), static_cast<bool>(seen[t]))
            << "seed " << seed << " pair " << s << "->" << t;
      }
    }
  }
}

TEST(TransitiveReduction, RemovesShortcutEdge) {
  expmk::graph::Dag g;
  const auto a = g.add_task("a", 1.0);
  const auto b = g.add_task("b", 1.0);
  const auto c = g.add_task("c", 1.0);
  g.add_edge(a, b);
  g.add_edge(b, c);
  g.add_edge(a, c);  // redundant
  const auto reduced = transitive_reduction(g);
  EXPECT_EQ(reduced.edge_count(), 2u);
  EXPECT_EQ(redundant_edge_count(g), 1u);
}

TEST(TransitiveReduction, PreservesReachabilityAndLongestPath) {
  for (const std::uint64_t seed : {5u, 6u, 7u}) {
    const auto g = expmk::gen::erdos_dag(25, 0.25, seed);
    const auto reduced = transitive_reduction(g);
    EXPECT_LE(reduced.edge_count(), g.edge_count());
    const Reachability r1(g), r2(reduced);
    for (expmk::graph::TaskId u = 0; u < g.task_count(); ++u) {
      for (expmk::graph::TaskId v = 0; v < g.task_count(); ++v) {
        EXPECT_EQ(r1.reaches(u, v), r2.reaches(u, v));
      }
    }
    // Longest path is path-based, so reduction must not change it (the
    // removed edges are never the unique longest connection... they are
    // shortcuts with strictly smaller weight sums along them).
    EXPECT_NEAR(expmk::graph::critical_path_length(g),
                expmk::graph::critical_path_length(reduced), 1e-12);
  }
}

TEST(TransitiveReduction, CholeskyDagIsAlreadyReduced) {
  // The generator emits only direct data dependencies.
  const auto g = expmk::gen::cholesky_dag(5);
  EXPECT_EQ(redundant_edge_count(g), 0u);
}

}  // namespace
