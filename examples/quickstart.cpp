// examples/quickstart.cpp
//
// Minimal tour of the public API, built around the compile-once Scenario
// handle: describe a small task DAG, compile ONE immutable scenario for
// the chosen failure regime, and hand that same scenario to every
// estimator in the library — with the Monte-Carlo ground truth last to
// judge them. A second scenario shows heterogeneous per-task error rates
// (only the failure spec changes; every supporting estimator runs
// unmodified).
//
//   $ ./quickstart
//
// The DAG is a toy workflow: preprocessing, three parallel solvers of
// different sizes, and a reduction.

#include <cstdio>
#include <vector>

#include "core/exact.hpp"
#include "core/failure_model.hpp"
#include "core/first_order.hpp"
#include "core/second_order.hpp"
#include "exp/workspace.hpp"
#include "graph/dag.hpp"
#include "mc/engine.hpp"
#include "normal/clark_full.hpp"
#include "normal/corlca.hpp"
#include "normal/sculli.hpp"
#include "scenario/scenario.hpp"
#include "spgraph/dodin.hpp"

int main() {
  using namespace expmk;

  // 1. Describe the workflow: weights are failure-free execution times
  //    in seconds.
  graph::Dag g;
  const auto prep = g.add_task("prepare", 0.10);
  const auto solve_small = g.add_task("solve_small", 0.12);
  const auto solve_mid = g.add_task("solve_mid", 0.18);
  const auto solve_big = g.add_task("solve_big", 0.25);
  const auto reduce = g.add_task("reduce", 0.08);
  for (const auto s : {solve_small, solve_mid, solve_big}) {
    g.add_edge(prep, s);
    g.add_edge(s, reduce);
  }

  // 2. Compile the scenario ONCE: calibrate lambda so a task of average
  //    weight fails with probability 1% (the paper's harshest setting),
  //    then bundle DAG + rates + retry model + all cached preprocessing
  //    into one immutable, thread-shareable handle.
  const scenario::Scenario sc =
      scenario::Scenario::calibrated(g, 0.01, core::RetryModel::TwoState);
  std::printf("workflow: %zu tasks, %zu edges, critical path %.4f s\n",
              sc.task_count(), sc.dag().edge_count(), sc.critical_path());
  std::printf("failure model: lambda = %.5f /s (pfail = 1%% per average "
              "task)\n\n",
              sc.uniform_model().lambda);

  // 3. Hand the SAME scenario to every estimator, each with one scratch
  //    Workspace reused across calls. No estimator re-derives the CSR
  //    view, the topological order or the e^{-lambda a_i} table.
  exp::Workspace ws;
  const auto fo = core::first_order(sc, ws);
  std::printf("%-28s %.6f s  (= %.6f + correction %.6f)\n",
              "first order (the paper):", fo.expected_makespan(),
              fo.critical_path, fo.correction);

  const auto so = core::second_order(sc, ws);
  std::printf("%-28s %.6f s\n", "second order (extension):",
              so.expected_makespan);

  const auto dodin = sp::dodin_two_state_flat(sc, {.max_atoms = 0}, ws);
  std::printf("%-28s %.6f s  (%zu duplications)\n", "Dodin (competitor):",
              dodin.mean, dodin.duplications);

  std::printf("%-28s %.6f s\n", "Normal / Sculli:",
              normal::sculli(sc, ws).expected_makespan());
  std::printf("%-28s %.6f s\n", "CorLCA:",
              normal::corlca(sc, ws).expected_makespan());
  std::printf("%-28s %.6f s\n", "Clark full covariance:",
              normal::clark_full(sc, ws).expected_makespan());

  // 4. Tiny graph, so the exact #P computation is feasible too.
  std::printf("%-28s %.6f s\n", "exact (enumeration):",
              core::exact_two_state(sc, ws));

  // 5. Monte-Carlo ground truth with the true (geometric) retry model —
  //    a different retry model is a different scenario, so compile one.
  const scenario::Scenario sc_geo =
      scenario::Scenario::calibrated(g, 0.01, core::RetryModel::Geometric);
  mc::McConfig cfg;
  cfg.trials = 200'000;
  const auto mc = mc::run_monte_carlo(sc_geo, cfg);
  std::printf("%-28s %.6f s  (+/- %.6f at 95%%, %llu trials)\n",
              "Monte-Carlo ground truth:", mc.mean, mc.ci95_half_width,
              static_cast<unsigned long long>(mc.trials));

  // 6. Heterogeneous silent errors: suppose the big solver runs on flaky
  //    hardware (10x the error rate) while preprocessing is protected
  //    (rate 0). Only the FailureSpec changes — the estimators don't.
  const double lambda = sc.uniform_model().lambda;
  std::vector<double> rates(g.task_count(), lambda);
  rates[prep] = 0.0;
  rates[solve_big] = 10.0 * lambda;
  const scenario::Scenario sc_het = scenario::Scenario::compile(
      g, scenario::FailureSpec::per_task(rates), core::RetryModel::TwoState);
  std::printf("\nheterogeneous rates (prepare protected, solve_big 10x):\n");
  std::printf("%-28s %.6f s\n", "first order:",
              core::first_order(sc_het, ws).expected_makespan());
  std::printf("%-28s %.6f s\n", "second order:",
              core::second_order(sc_het, ws).expected_makespan);
  std::printf("%-28s %.6f s\n", "exact (enumeration):",
              core::exact_two_state(sc_het, ws));
  return 0;
}
