// sched/list_scheduler.hpp
//
// Event-driven list scheduling on P identical processors. Ready tasks are
// kept in a priority queue (priority vector supplied by the caller); when
// a processor frees up, the highest-priority ready task starts on the
// earliest-available processor (EFT placement).
//
// The scheduler takes the *actual durations* as an explicit vector so the
// same machinery serves both deterministic scheduling (durations = task
// weights) and fault-injected simulation (durations = sampled execution
// counts x weights; see fault_sim.hpp).

#pragma once

#include <cstddef>
#include <span>
#include <stdexcept>
#include <vector>

#include "graph/dag.hpp"

namespace expmk::sched {

/// The platform: P identical processors.
class Machine {
 public:
  explicit Machine(std::size_t p) : processors_(p) {
    if (p == 0) throw std::invalid_argument("Machine: need >= 1 processor");
  }

  [[nodiscard]] std::size_t processors() const noexcept { return processors_; }

 private:
  std::size_t processors_;
};

/// One scheduled task instance.
struct Placement {
  double start = 0.0;
  double finish = 0.0;
  std::uint32_t processor = 0;
};

/// A complete schedule.
struct Schedule {
  std::vector<Placement> placements;  ///< indexed by TaskId
  double makespan = 0.0;
};

/// Builds the list schedule. `durations[i]` is task i's run time on any
/// processor. `priority[i]` ranks ready tasks (higher first; ties by
/// smaller id).
[[nodiscard]] Schedule list_schedule(const graph::Dag& g,
                                     std::span<const double> durations,
                                     std::span<const double> priority,
                                     const Machine& machine);

}  // namespace expmk::sched
