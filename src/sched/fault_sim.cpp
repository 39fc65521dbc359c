#include "sched/fault_sim.hpp"

namespace expmk::sched {

FaultSimResult simulate_with_faults(const scenario::Scenario& sc,
                                    std::span<const double> priority,
                                    const Machine& machine,
                                    const FaultSimConfig& config,
                                    exp::Workspace& ws) {
  const graph::Dag& g = sc.dag();
  const mc::TrialContext ctx(sc);
  const exp::Workspace::Frame frame(ws);
  FaultSimResult result;
  result.failure_free_makespan =
      list_schedule(g, g.weights(), priority, machine).makespan;

  // Leased once per campaign; the trial kernel asserts sizes instead of
  // resizing per run.
  const std::span<double> durations = ws.doubles(g.task_count());
  const std::span<double> finish = ws.doubles(g.task_count());
  for (std::uint64_t r = 0; r < config.runs; ++r) {
    prob::McRng rng(config.seed, r);
    // Sample per-task total execution time (attempts x weight), then
    // schedule with those durations.
    (void)mc::run_trial_scatter_csr(ctx, rng, finish, durations);
    const Schedule s = list_schedule(g, durations, priority, machine);
    result.makespan.push(s.makespan);
  }
  return result;
}

}  // namespace expmk::sched
