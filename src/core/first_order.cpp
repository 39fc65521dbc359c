#include "core/first_order.hpp"

#include <algorithm>

#include "graph/csr.hpp"

namespace expmk::core {

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
    // Uniform: sum the deltas, multiply by lambda once (the factoring
    // the registry's golden values were recorded with).
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

}  // namespace expmk::core
