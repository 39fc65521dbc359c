#include "reference_estimators.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "dist_ops.hpp"
#include "graph/longest_path.hpp"
#include "graph/topological.hpp"
#include "mc/trial.hpp"
#include "prob/discrete_distribution.hpp"

namespace expmk::ref {

std::vector<std::vector<graph::TaskId>> level_partition(const graph::Dag& g) {
  const auto topo = graph::topological_order(g);
  std::vector<std::size_t> level(g.task_count(), 0);
  std::size_t max_level = 0;
  for (const graph::TaskId v : topo) {
    for (const graph::TaskId u : g.predecessors(v)) {
      level[v] = std::max(level[v], level[u] + 1);
    }
    max_level = std::max(max_level, level[v]);
  }
  std::vector<std::vector<graph::TaskId>> out(
      g.task_count() ? max_level + 1 : 0);
  for (graph::TaskId v = 0; v < g.task_count(); ++v) {
    out[level[v]].push_back(v);
  }
  return out;
}

double first_order_naive(const graph::Dag& g,
                         const core::FailureModel& model) {
  const auto topo = graph::topological_order(g);
  std::vector<double> finish(g.task_count());
  const double d = graph::critical_path_length(g, g.weights(), topo, finish);
  std::vector<double> weights = g.weights();
  double correction = 0.0;
  for (graph::TaskId i = 0; i < g.task_count(); ++i) {
    const double a = weights[i];
    weights[i] = 2.0 * a;
    const double d_i = graph::critical_path_length(g, weights, topo, finish);
    weights[i] = a;
    correction += a * (d_i - d);
  }
  return d + model.lambda * correction;
}

core::MakespanBounds makespan_bounds_object_fold(
    const graph::Dag& g, const core::FailureModel& model) {
  const auto topo = graph::topological_order(g);
  std::vector<double> p(g.task_count());
  std::vector<double> expected(g.task_count());
  for (graph::TaskId i = 0; i < g.task_count(); ++i) {
    p[i] = model.p_success(g.weight(i));
    expected[i] = g.weight(i) * (2.0 - p[i]);
  }
  core::MakespanBounds out;
  out.failure_free = graph::critical_path_length(g, g.weights(), topo);
  out.jensen_lower = graph::critical_path_length(g, expected, topo);

  // E[ sum_l max_{i in L_l} X_i ].
  double upper = 0.0;
  for (const auto& level : level_partition(g)) {
    auto level_max = prob::DiscreteDistribution::point(0.0);
    for (const graph::TaskId i : level) {
      const double a = g.weight(i);
      if (a <= 0.0) continue;
      level_max = dist_ops::max_of(
          level_max, prob::DiscreteDistribution::two_state(a, p[i]));
    }
    upper += level_max.mean();
  }
  out.level_upper = upper;
  return out;
}

double reference_trial(const scenario::Scenario& sc, prob::McRng& rng,
                       std::vector<double>& durations, double* control) {
  const std::size_t n = sc.task_count();
  const std::span<const double> w = sc.csr().weights();
  constexpr int kCap = mc::kMaxExecutions;
  durations.resize(n);
  if (control != nullptr) *control = 0.0;
  for (std::uint32_t v = 0; v < n; ++v) {
    int executions = 1;
    if (sc.retry() == core::RetryModel::TwoState) {
      executions = rng.uniform() < sc.p_success_csr()[v] ? 1 : 2;
    } else {
      const double u = rng.uniform_positive();
      if (u <= sc.q_fail_csr()[v]) {
        const double f = std::floor(std::log(u) * sc.inv_log_q_csr()[v]);
        if (!(f < static_cast<double>(kCap))) {
          executions = kCap;
        } else {
          const int failures = f < 0.0 ? 0 : static_cast<int>(f);
          executions = std::min(failures + 1, kCap);
        }
      }
    }
    if (control != nullptr) {
      *control += w[v] * static_cast<double>(executions - 1);
    }
    durations[sc.csr().original_id(v)] = w[v] * static_cast<double>(executions);
  }
  return graph::critical_path_length(sc.dag(), durations, sc.topo());
}

}  // namespace expmk::ref
