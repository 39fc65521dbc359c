#include "reference_estimators.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

#include "dist_ops.hpp"
#include "graph/topological.hpp"
#include "mc/trial.hpp"
#include "prob/discrete_distribution.hpp"

namespace expmk::ref {

double dag_critical_path(const graph::Dag& g,
                         std::span<const double> weights) {
  if (weights.size() != g.task_count()) {
    throw std::invalid_argument("dag_critical_path: weights size mismatch");
  }
  std::vector<double> finish(g.task_count(), 0.0);
  double best = 0.0;
  for (const graph::TaskId v : graph::topological_order(g)) {
    double start = 0.0;
    for (const graph::TaskId u : g.predecessors(v)) {
      if (finish[u] > start) start = finish[u];
    }
    finish[v] = start + weights[v];
    if (finish[v] > best) best = finish[v];
  }
  return best;
}

std::vector<double> dag_longest_from(const graph::Dag& g,
                                     graph::TaskId source,
                                     std::span<const double> weights) {
  constexpr double kNegInf = -std::numeric_limits<double>::infinity();
  std::vector<double> dist(g.task_count(), kNegInf);
  dist[source] = weights[source];
  bool seen_source = false;
  for (const graph::TaskId v : graph::topological_order(g)) {
    if (v == source) seen_source = true;
    if (!seen_source || dist[v] == kNegInf) continue;
    for (const graph::TaskId w : g.successors(v)) {
      const double cand = dist[v] + weights[w];
      if (cand > dist[w]) dist[w] = cand;
    }
  }
  return dist;
}

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
  const double d = dag_critical_path(g, g.weights());
  std::vector<double> weights = g.weights();
  double correction = 0.0;
  for (graph::TaskId i = 0; i < g.task_count(); ++i) {
    const double a = weights[i];
    weights[i] = 2.0 * a;
    const double d_i = dag_critical_path(g, weights);
    weights[i] = a;
    correction += a * (d_i - d);
  }
  return d + model.lambda * correction;
}

core::MakespanBounds makespan_bounds_object_fold(
    const graph::Dag& g, const core::FailureModel& model) {
  std::vector<double> p(g.task_count());
  std::vector<double> expected(g.task_count());
  for (graph::TaskId i = 0; i < g.task_count(); ++i) {
    p[i] = model.p_success(g.weight(i));
    expected[i] = g.weight(i) * (2.0 - p[i]);
  }
  core::MakespanBounds out;
  out.failure_free = dag_critical_path(g, g.weights());
  out.jensen_lower = dag_critical_path(g, expected);

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
  return dag_critical_path(sc.dag(), durations);
}

}  // namespace expmk::ref
