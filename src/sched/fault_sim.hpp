// sched/fault_sim.hpp
//
// Fault-injected schedule simulation: runs the list scheduler with task
// durations sampled from the silent-error model (every failed attempt is
// fully re-executed, verification at task end). Used to compare priority
// schemes — classical bottom level vs the paper's failure-aware bottom
// level — under actual failures (bench/ablation_scheduling).

#pragma once

#include <cstdint>

#include "exp/workspace.hpp"
#include "prob/statistics.hpp"
#include "sched/list_scheduler.hpp"
#include "sched/priorities.hpp"

namespace expmk::sched {

/// Configuration of a fault-injection campaign.
struct FaultSimConfig {
  std::uint64_t runs = 1000;
  std::uint64_t seed = 0xFEED;
};

/// Aggregate outcome over the campaign.
struct FaultSimResult {
  prob::RunningStats makespan;  ///< distribution of achieved makespans
  double failure_free_makespan = 0.0;  ///< same priorities, no faults
};

/// Runs `config.runs` fault-injected executions of the list schedule of
/// the scenario's DAG with the given priority vector on `machine`; the
/// scenario's retry model governs sampling (heterogeneous per-task rates
/// supported). The per-run duration buffers (CSR position order as
/// sampled, Dag id order for the scheduler) are leased from `ws`. (The
/// list scheduler itself still builds its Schedule per run — the
/// simulation is a Monte-Carlo campaign, not one of the allocation-pinned
/// analytic paths.)
[[nodiscard]] FaultSimResult simulate_with_faults(
    const scenario::Scenario& sc, std::span<const double> priority,
    const Machine& machine, const FaultSimConfig& config,
    exp::Workspace& ws);

}  // namespace expmk::sched
