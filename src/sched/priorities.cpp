#include "sched/priorities.hpp"

#include "core/bottom_levels.hpp"
#include "graph/levels.hpp"

namespace expmk::sched {

std::vector<double> priorities(const scenario::Scenario& sc,
                               PriorityKind kind) {
  if (kind == PriorityKind::FailureAwareBottomLevel) {
    return core::failure_aware_bottom_levels(sc);
  }
  const graph::Dag& g = sc.dag();
  return graph::bottom_levels(g, g.weights(), sc.topo());
}

}  // namespace expmk::sched
