// core/criticality.hpp
//
// Criticality analysis under silent errors. In the deterministic setting a
// task is critical iff top(i) + bottom(i) = d(G); with probabilistic
// durations the right notion is the *criticality probability*: the chance
// the task lies on a longest path. List schedulers use it to decide which
// tasks deserve protection (stronger verification, replication).
//
// Two views are provided:
//  * deterministic slack/criticality from the levels (exact, O(V + E));
//  * Monte-Carlo criticality probabilities under the failure model
//    (samples 2-state/geometric durations, marks all tasks on *some*
//    longest path per trial).

#pragma once

#include <cstdint>
#include <vector>

#include "exp/workspace.hpp"
#include "graph/dag.hpp"
#include "scenario/scenario.hpp"

namespace expmk::core {

/// Deterministic slack of every task: d(G) - (top(i) + bottom(i)) >= 0;
/// zero slack = on a critical path.
[[nodiscard]] std::vector<double> slacks(const graph::Dag& g);

/// Monte-Carlo criticality estimation config.
struct CriticalityConfig {
  std::uint64_t trials = 10'000;
  std::uint64_t seed = 0xCA11;
};

/// out[i] = estimated probability that task i lies on a longest path when
/// durations are sampled from the scenario's silent-error model (its
/// retry model governs sampling; heterogeneous per-task rates
/// supported). O(trials * (V+E)). Every per-trial buffer (sampled
/// durations, the CSR level arrays, the hit counters) is leased from
/// `ws`, so the only heap allocation per call is the returned probability
/// vector itself.
[[nodiscard]] std::vector<double> criticality_probabilities(
    const scenario::Scenario& sc, const CriticalityConfig& config,
    exp::Workspace& ws);

}  // namespace expmk::core
