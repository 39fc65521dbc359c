#include "sched/priorities.hpp"

#include "core/bottom_levels.hpp"
#include "graph/csr.hpp"

namespace expmk::sched {

std::vector<double> priorities(const scenario::Scenario& sc,
                               PriorityKind kind) {
  if (kind == PriorityKind::FailureAwareBottomLevel) {
    return core::failure_aware_bottom_levels(sc);
  }
  const graph::CsrDag& csr = sc.csr();
  const std::size_t n = csr.task_count();
  std::vector<double> top(n);
  std::vector<double> bottom(n);
  (void)graph::compute_levels(csr, csr.weights(), top, bottom);
  std::vector<double> out(n);
  for (graph::TaskId i = 0; i < n; ++i) out[i] = bottom[csr.position()[i]];
  return out;
}

}  // namespace expmk::sched
