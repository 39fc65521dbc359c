#include "sched/list_scheduler.hpp"

#include <algorithm>
#include <limits>
#include <queue>

namespace expmk::sched {

namespace {

/// Max-heap entry for the ready queue.
struct ReadyTask {
  double priority;
  graph::TaskId id;
  bool operator<(const ReadyTask& other) const {
    if (priority != other.priority) return priority < other.priority;
    return id > other.id;  // smaller id wins ties
  }
};

}  // namespace

Schedule list_schedule(const graph::Dag& g, std::span<const double> durations,
                       std::span<const double> priority,
                       const Machine& machine) {
  const std::size_t n = g.task_count();
  if (durations.size() != n || priority.size() != n) {
    throw std::invalid_argument(
        "list_schedule: durations/priority size mismatch");
  }

  Schedule schedule;
  schedule.placements.assign(n, {});

  std::vector<std::size_t> remaining(n);
  std::priority_queue<ReadyTask> ready;
  for (graph::TaskId v = 0; v < n; ++v) {
    remaining[v] = g.in_degree(v);
    if (remaining[v] == 0) ready.push({priority[v], v});
  }

  // ready_time[v]: max finish time over predecessors (data availability).
  std::vector<double> ready_time(n, 0.0);
  std::vector<double> proc_free(machine.processors(), 0.0);

  std::size_t scheduled = 0;
  while (!ready.empty()) {
    const auto [prio, v] = ready.top();
    ready.pop();
    (void)prio;

    // EFT placement: earliest finish over all processors (start = max of
    // processor availability and data readiness).
    std::size_t best_p = 0;
    double best_finish = std::numeric_limits<double>::infinity();
    double best_start = 0.0;
    for (std::size_t p = 0; p < machine.processors(); ++p) {
      const double start = std::max(proc_free[p], ready_time[v]);
      const double finish = start + durations[v];
      if (finish < best_finish) {
        best_finish = finish;
        best_start = start;
        best_p = p;
      }
    }
    schedule.placements[v] = {best_start, best_finish,
                              static_cast<std::uint32_t>(best_p)};
    proc_free[best_p] = best_finish;
    schedule.makespan = std::max(schedule.makespan, best_finish);
    ++scheduled;

    for (const graph::TaskId w : g.successors(v)) {
      ready_time[w] = std::max(ready_time[w], best_finish);
      if (--remaining[w] == 0) ready.push({priority[w], w});
    }
  }
  if (scheduled != n) {
    throw std::invalid_argument("list_schedule: graph has a cycle");
  }
  return schedule;
}

}  // namespace expmk::sched
