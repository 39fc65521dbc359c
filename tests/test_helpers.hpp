// tests/test_helpers.hpp
//
// Small fixture graphs and brute-force reference computations shared by
// the test suite.

#pragma once

#include <algorithm>
#include <cmath>
#include <functional>
#include <vector>

#include "core/failure_model.hpp"
#include "exp/workspace.hpp"
#include "graph/dag.hpp"
#include "graph/topological.hpp"
#include "scenario/scenario.hpp"
#include "spgraph/dodin.hpp"

namespace expmk::test {

/// Diamond: A -> {B, C} -> D. Weights a, b, c, d.
inline graph::Dag diamond(double a = 1.0, double b = 2.0, double c = 3.0,
                          double d = 1.0) {
  graph::Dag g;
  const auto A = g.add_task("A", a);
  const auto B = g.add_task("B", b);
  const auto C = g.add_task("C", c);
  const auto D = g.add_task("D", d);
  g.add_edge(A, B);
  g.add_edge(A, C);
  g.add_edge(B, D);
  g.add_edge(C, D);
  return g;
}

/// The minimal non-SP precedence shape: entries A, B; exits C, D;
/// A->C, A->D, B->D.
inline graph::Dag n_graph(double a = 1.0, double b = 2.0, double c = 3.0,
                          double d = 4.0) {
  graph::Dag g;
  const auto A = g.add_task("A", a);
  const auto B = g.add_task("B", b);
  const auto C = g.add_task("C", c);
  const auto D = g.add_task("D", d);
  g.add_edge(A, C);
  g.add_edge(A, D);
  g.add_edge(B, D);
  return g;
}

/// Brute-force longest path by DFS over all paths (exponential; tiny
/// graphs only). Cross-checks the DP implementation.
inline double brute_force_longest_path(const graph::Dag& g,
                                       const std::vector<double>& w) {
  double best = 0.0;
  std::vector<graph::TaskId> stack;
  const std::function<void(graph::TaskId, double)> dfs =
      [&](graph::TaskId v, double len) {
        len += w[v];
        best = std::max(best, len);
        for (const graph::TaskId s : g.successors(v)) dfs(s, len);
      };
  for (const graph::TaskId e : g.entry_tasks()) dfs(e, 0.0);
  return best;
}

/// A compiled uniform-rate scenario of `g`, its rate calibrated from
/// `pfail` on the mean task weight (Section V-C).
inline scenario::Scenario uniform_scenario(
    const graph::Dag& g, double pfail,
    core::RetryModel retry = core::RetryModel::TwoState) {
  return scenario::Scenario::calibrated(g, pfail, retry);
}

/// A compiled uniform-rate scenario of `g` under the explicit model `m`.
inline scenario::Scenario uniform_scenario(
    const graph::Dag& g, const core::FailureModel& m,
    core::RetryModel retry = core::RetryModel::TwoState) {
  return scenario::Scenario::compile(g, m, retry);
}

/// The paper's Dodin pipeline on `g` under the uniform model `m`: a
/// compiled Scenario through the flat engine.
inline sp::DodinFlatResult dodin_two_state(const graph::Dag& g,
                                           const core::FailureModel& m,
                                           const sp::DodinOptions& opts) {
  const auto sc = uniform_scenario(g, m);
  exp::Workspace ws;
  return sp::dodin_two_state_flat(sc, opts, ws);
}

/// |x - y| <= tol * max(1, |x|, |y|).
inline bool near(double x, double y, double tol = 1e-9) {
  return std::fabs(x - y) <= tol * std::max({1.0, std::fabs(x), std::fabs(y)});
}

}  // namespace expmk::test
