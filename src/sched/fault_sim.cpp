#include "sched/fault_sim.hpp"

#include "mc/trial.hpp"

namespace expmk::sched {

FaultSimResult simulate_with_faults(const scenario::Scenario& sc,
                                    std::span<const double> priority,
                                    const Machine& machine,
                                    const FaultSimConfig& config,
                                    exp::Workspace& ws) {
  const graph::Dag& g = sc.dag();
  const std::span<const graph::TaskId> order = sc.csr().order();
  const exp::Workspace::Frame frame(ws);
  FaultSimResult result;
  result.failure_free_makespan =
      list_schedule(g, g.weights(), priority, machine).makespan;

  // Leased once per campaign: durations in CSR position order as
  // sampled, then scattered into Dag id order for the scheduler.
  const std::span<double> dur_pos = ws.doubles(g.task_count());
  const std::span<double> durations = ws.doubles(g.task_count());
  for (std::uint64_t r = 0; r < config.runs; ++r) {
    prob::McRng rng(config.seed, r);
    // Sample per-task total execution time (attempts x weight), then
    // schedule with those durations.
    mc::sample_durations(sc, rng, dur_pos);
    for (std::size_t v = 0; v < dur_pos.size(); ++v) {
      durations[order[v]] = dur_pos[v];
    }
    const Schedule s = list_schedule(g, durations, priority, machine);
    result.makespan.push(s.makespan);
  }
  return result;
}

}  // namespace expmk::sched
