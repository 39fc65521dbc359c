#include "normal/sculli.hpp"

#include <stdexcept>

namespace expmk::normal {

EXPMK_NOALLOC prob::NormalMoments duration_moments_p(double a, double p,
                                       core::RetryModel kind) {
  if (a < 0.0) throw std::invalid_argument("duration_moments: a >= 0");
  if (a == 0.0) return {0.0, 0.0};
  switch (kind) {
    case core::RetryModel::TwoState:
      return {a * (2.0 - p), a * a * p * (1.0 - p)};
    case core::RetryModel::Geometric:
      return {a / p, a * a * (1.0 - p) / (p * p)};
  }
  return {a, 0.0};
}

EXPMK_NOALLOC NormalEstimate sculli(const scenario::Scenario& sc,
                                    exp::Workspace& ws) {
  const graph::CsrDag& csr = sc.csr();
  const std::size_t n = csr.task_count();
  if (n == 0) {
    throw std::invalid_argument("sculli: empty graph");
  }
  const exp::Workspace::Frame frame(ws);
  const std::span<const double> w = csr.weights();
  const std::span<const double> p = sc.p_success_csr();
  const core::RetryModel kind = sc.retry();
  // Completion moments per position: a forward sweep folding each
  // vertex's predecessors in the Dag's predecessor order (which the CSR
  // view keeps); every entry is written before it is read.
  const std::span<prob::NormalMoments> completion = ws.moments(n);
  for (std::uint32_t v = 0; v < n; ++v) {
    prob::NormalMoments ready{0.0, 0.0};
    bool first = true;
    for (const std::uint32_t u : csr.preds(v)) {
      if (first) {
        ready = completion[u];
        first = false;
      } else {
        ready = prob::clark_max(ready, completion[u], 0.0).moments;
      }
    }
    completion[v] =
        prob::sum_independent(ready, duration_moments_p(w[v], p[v], kind));
  }
  // Exit fold, in the scenario's cached (ascending-id) exit order.
  prob::NormalMoments makespan{0.0, 0.0};
  bool first = true;
  for (const std::uint32_t v : sc.exits()) {
    if (first) {
      makespan = completion[v];
      first = false;
    } else {
      makespan = prob::clark_max(makespan, completion[v], 0.0).moments;
    }
  }
  return NormalEstimate{makespan};
}

}  // namespace expmk::normal
