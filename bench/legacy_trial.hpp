// bench/legacy_trial.hpp
//
// Faithful replica of the PRE-CSR Monte-Carlo trial kernel, kept solely as
// the baseline for bench_mc's legacy row in BENCH_mc.json.
// Costs it pays that the production path (mc::run_monte_carlo over the
// trial-lane kernel mc::run_trial_lanes) no longer does: a heap-allocated
// finish[] per makespan evaluation, vector-of-vector adjacency chasing
// through the Dag, topo-order indirection, TWO transcendental calls
// (log(u), log1p(-p)) per task per trial, and one trial per sweep.

#pragma once

#include <cmath>
#include <vector>

#include "core/failure_model.hpp"
#include "graph/dag.hpp"
#include "graph/topological.hpp"
#include "prob/rng.hpp"

namespace expmk::bench {

/// Pre-CSR trial state: Dag pointer + topo order + per-task p_success.
struct LegacyTrialContext {
  const graph::Dag* dag = nullptr;
  std::vector<graph::TaskId> topo;
  std::vector<double> p_success;
  core::RetryModel retry = core::RetryModel::Geometric;
  int max_executions = 64;

  LegacyTrialContext(const graph::Dag& g, const core::FailureModel& model,
                     core::RetryModel retry_model)
      : dag(&g),
        topo(graph::topological_order(g)),
        p_success(g.task_count()),
        retry(retry_model) {
    for (graph::TaskId i = 0; i < g.task_count(); ++i) {
      p_success[i] = model.p_success(g.weight(i));
    }
  }
};

inline int legacy_sample_executions(const LegacyTrialContext& ctx,
                                    std::size_t i,
                                    prob::McRng& rng) {
  const double p = ctx.p_success[i];
  if (p >= 1.0) return 1;
  if (ctx.retry == core::RetryModel::TwoState) {
    return rng.bernoulli(p) ? 1 : 2;
  }
  const double u = rng.uniform_positive();
  const double f = std::floor(std::log(u) / std::log1p(-p));
  if (!(f < static_cast<double>(ctx.max_executions))) {
    return ctx.max_executions;
  }
  const int failures = f < 0.0 ? 0 : static_cast<int>(f);
  const int executions = failures + 1;
  return executions < ctx.max_executions ? executions : ctx.max_executions;
}

/// One pre-CSR trial: sample durations (resize per call, as the old kernel
/// did), then the longest path over the Dag's adjacency lists in topo
/// order, into a finish[] allocated per evaluation.
inline double legacy_run_trial(const LegacyTrialContext& ctx,
                               prob::McRng& rng,
                               std::vector<double>& durations) {
  const graph::Dag& g = *ctx.dag;
  durations.resize(g.task_count());
  for (std::size_t i = 0; i < g.task_count(); ++i) {
    durations[i] = g.weights()[i] *
                   static_cast<double>(legacy_sample_executions(ctx, i, rng));
  }
  std::vector<double> finish(g.task_count(), 0.0);
  double best = 0.0;
  for (const graph::TaskId v : ctx.topo) {
    double start = 0.0;
    for (const graph::TaskId u : g.predecessors(v)) {
      if (finish[u] > start) start = finish[u];
    }
    finish[v] = start + durations[v];
    if (finish[v] > best) best = finish[v];
  }
  return best;
}

}  // namespace expmk::bench
