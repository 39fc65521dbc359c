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
  const graph::Dag& g = sc.dag();
  if (g.task_count() == 0) {
    throw std::invalid_argument("sculli: empty graph");
  }
  const exp::Workspace::Frame frame(ws);
  const std::span<const double> p = sc.p_success();
  const core::RetryModel kind = sc.retry();
  // The completion moments are pure dataflow over the graph (each fold
  // reads only ancestors, in the predecessor order of `g`), so any valid
  // topological order yields identical values; every entry is written
  // before it is read.
  const std::span<prob::NormalMoments> completion =
      ws.moments(sc.task_count());
  for (const graph::TaskId v : sc.topo()) {
    prob::NormalMoments ready{0.0, 0.0};
    bool first = true;
    for (const graph::TaskId u : g.predecessors(v)) {
      if (first) {
        ready = completion[u];
        first = false;
      } else {
        ready = prob::clark_max(ready, completion[u], 0.0).moments;
      }
    }
    completion[v] = prob::sum_independent(
        ready, duration_moments_p(g.weight(v), p[v], kind));
  }
  // Exit fold, in the scenario's cached (ascending-id) exit order.
  prob::NormalMoments makespan{0.0, 0.0};
  bool first = true;
  for (const graph::TaskId v : sc.exits()) {
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
