#include "core/first_order.hpp"

#include <algorithm>

#include "graph/csr.hpp"
#include "graph/levels.hpp"
#include "graph/longest_path.hpp"
#include "graph/topological.hpp"

namespace expmk::core {

FirstOrderResult first_order(const graph::CsrDag& csr,
                             const FailureModel& model) {
  const std::size_t n = csr.task_count();
  const std::span<const double> w = csr.weights();
  std::vector<double> top(n), bottom(n);
  const double d = graph::compute_levels(csr, w, top, bottom);

  FirstOrderResult out;
  out.critical_path = d;
  double correction = 0.0;
  for (std::uint32_t v = 0; v < n; ++v) {
    // d(G_v) - d(G) = max(0, through(v) + a_v - d(G)): doubling a_v adds
    // a_v to every path through v and leaves other paths unchanged.
    const double through_doubled = top[v] + bottom[v] + w[v];
    const double delta = std::max(0.0, through_doubled - d);
    correction += w[v] * delta;
  }
  out.correction = model.lambda * correction;
  return out;
}

EXPMK_NOALLOC FirstOrderResult first_order(const scenario::Scenario& sc,
                             exp::Workspace& ws) {
  const exp::Workspace::Frame frame(ws);
  const graph::CsrDag& csr = sc.csr();
  const std::size_t n = csr.task_count();
  const std::span<const double> w = csr.weights();
  const std::span<double> top = ws.doubles(n);
  const std::span<double> bottom = ws.doubles(n);
  const double d = graph::compute_levels(csr, w, top, bottom);

  FirstOrderResult out;
  out.critical_path = d;
  double correction = 0.0;
  if (!sc.heterogeneous()) {
    // Uniform: sum the deltas, multiply by lambda once — the exact
    // arithmetic of the pre-Scenario code path (bit-identical to
    // first_order(Dag, FailureModel)).
    for (std::uint32_t v = 0; v < n; ++v) {
      const double through_doubled = top[v] + bottom[v] + w[v];
      const double delta = std::max(0.0, through_doubled - d);
      correction += w[v] * delta;
    }
    out.correction = sc.uniform_model().lambda * correction;
  } else {
    const std::span<const double> rates = sc.rates_csr();
    for (std::uint32_t v = 0; v < n; ++v) {
      const double through_doubled = top[v] + bottom[v] + w[v];
      const double delta = std::max(0.0, through_doubled - d);
      // lambda_i folds into the sum per task instead of scaling it once.
      correction += rates[v] * w[v] * delta;
    }
    out.correction = correction;
  }
  return out;
}

FirstOrderResult first_order(const scenario::Scenario& sc) {
  exp::Workspace ws;  // lease-a-temporary adapter; bit-identical
  return first_order(sc, ws);
}

FirstOrderResult first_order(const graph::Dag& g, const FailureModel& model,
                             std::span<const graph::TaskId> topo) {
  // Honors the caller's precomputed order (callers like core::dvfs_sweep
  // pass it to amortize across repeated evaluations); the CSR overload
  // above is for callers already holding a CsrDag.
  const auto levels = graph::compute_levels(g, g.weights(), topo);
  FirstOrderResult out;
  out.critical_path = levels.critical_path;
  double correction = 0.0;
  for (graph::TaskId i = 0; i < g.task_count(); ++i) {
    const double a = g.weight(i);
    const double through_doubled = levels.top[i] + levels.bottom[i] + a;
    const double delta = std::max(0.0, through_doubled - levels.critical_path);
    correction += a * delta;
  }
  out.correction = model.lambda * correction;
  return out;
}

FirstOrderResult first_order(const graph::Dag& g, const FailureModel& model) {
  return first_order(graph::CsrDag(g), model);
}

double first_order_naive(const graph::Dag& g, const FailureModel& model) {
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

}  // namespace expmk::core
