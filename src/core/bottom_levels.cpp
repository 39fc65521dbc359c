#include "core/bottom_levels.hpp"

#include <algorithm>
#include <limits>

#include "exp/workspace.hpp"
#include "graph/csr.hpp"

namespace expmk::core {

namespace {

/// One task's level from the failure-free bottom levels (`bottom`, by
/// position) and the longest paths from it, written into `dist`. The
/// correction sum runs in Dag id order, the order that fixes its
/// rounding.
double level_for(const scenario::Scenario& sc, graph::TaskId task,
                 std::span<const double> bottom, std::span<double> dist) {
  constexpr double kNegInf = -std::numeric_limits<double>::infinity();
  const graph::CsrDag& csr = sc.csr();
  const std::span<const std::uint32_t> position = csr.position();
  const std::span<const double> w = csr.weights();
  const std::uint32_t source = csr.position_of(task);
  graph::longest_from(csr, source, w, dist);
  const bool het = sc.heterogeneous();
  const std::span<const double> rates = sc.rates_csr();
  const double base = bottom[source];
  double correction = 0.0;
  for (graph::TaskId j = 0; j < csr.task_count(); ++j) {
    const std::uint32_t v = position[j];
    // longest_from leaves positions below the source untouched: none of
    // them is reachable from it.
    if (v < source || dist[v] == kNegInf) continue;
    const double term = w[v] * std::max(0.0, dist[v] + bottom[v] - base);
    correction += het ? rates[v] * term : term;
  }
  // Uniform: scale the sum by lambda once.
  return base + (het ? correction : sc.uniform_model().lambda * correction);
}

/// Runs levels(bottom, dist) with the failure-free bottom levels and a
/// `dist` span, both leased from the calling thread's pooled workspace.
template <class Levels>
auto with_bottom_levels(const scenario::Scenario& sc, Levels&& levels) {
  const std::size_t n = sc.task_count();
  exp::Workspace& ws = exp::Workspace::local();
  const exp::Workspace::Frame frame(ws);
  const std::span<double> top = ws.doubles(n);
  const std::span<double> bottom = ws.doubles(n);
  (void)graph::compute_levels(sc.csr(), sc.weights_csr(), top, bottom);
  return levels(std::span<const double>(bottom), ws.doubles(n));
}

}  // namespace

std::vector<double> failure_aware_bottom_levels(const scenario::Scenario& sc) {
  return with_bottom_levels(sc, [&](std::span<const double> bottom,
                                    std::span<double> dist) {
    std::vector<double> out(sc.task_count());
    for (graph::TaskId i = 0; i < out.size(); ++i) {
      out[i] = level_for(sc, i, bottom, dist);
    }
    return out;
  });
}

double failure_aware_bottom_level(const scenario::Scenario& sc,
                                  graph::TaskId task) {
  return with_bottom_levels(sc, [&](std::span<const double> bottom,
                                    std::span<double> dist) {
    return level_for(sc, task, bottom, dist);
  });
}

}  // namespace expmk::core
