#include "core/bottom_levels.hpp"

#include <algorithm>
#include <limits>

#include "graph/levels.hpp"
#include "graph/longest_path.hpp"

namespace expmk::core {

namespace {

double level_for(const scenario::Scenario& sc, graph::TaskId task,
                 const std::vector<double>& bottom) {
  const graph::Dag& g = sc.dag();
  const auto& w = g.weights();
  const auto lp = graph::longest_from(g, task, w, sc.topo());
  const bool het = sc.heterogeneous();
  const std::span<const double> rates = sc.rates();
  const double base = bottom[task];
  double correction = 0.0;
  for (graph::TaskId j = 0; j < g.task_count(); ++j) {
    if (lp[j] == -std::numeric_limits<double>::infinity()) continue;
    const double term = w[j] * std::max(0.0, lp[j] + bottom[j] - base);
    correction += het ? rates[j] * term : term;
  }
  // Uniform: scale the sum by lambda once.
  return base + (het ? correction : sc.uniform_model().lambda * correction);
}

}  // namespace

std::vector<double> failure_aware_bottom_levels(const scenario::Scenario& sc) {
  const graph::Dag& g = sc.dag();
  const auto bottom = graph::bottom_levels(g, g.weights(), sc.topo());
  std::vector<double> out(g.task_count());
  for (graph::TaskId i = 0; i < g.task_count(); ++i) {
    out[i] = level_for(sc, i, bottom);
  }
  return out;
}

double failure_aware_bottom_level(const scenario::Scenario& sc,
                                  graph::TaskId task) {
  const graph::Dag& g = sc.dag();
  const auto bottom = graph::bottom_levels(g, g.weights(), sc.topo());
  return level_for(sc, task, bottom);
}

}  // namespace expmk::core
