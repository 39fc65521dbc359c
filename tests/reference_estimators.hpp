// tests/reference_estimators.hpp
//
// Separate algorithms the library's estimator kernels are checked
// against. Each recomputes its quantity on the plain Dag by a different
// route than the kernel:
//  * first_order_naive recomputes d(G_i) from scratch for every task,
//    O(|V| (|V| + |E|)) — the paper's naive bound — against the O(V + E)
//    core::first_order kernel;
//  * makespan_bounds_object_fold folds the per-level maxima through heap
//    prob::DiscreteDistribution objects over level_partition's nested
//    vectors, the arithmetic the flat atom fold of core::makespan_bounds
//    mirrors operation for operation;
//  * reference_trial samples one Monte-Carlo trial task by task and
//    takes the makespan with the Dag longest path — the spec the
//    trial-lane kernel and mc::sample_durations are pinned against;
//  * dag_critical_path and dag_longest_from walk the Dag's adjacency
//    lists in a topological order — the spec the graph::CsrDag kernels
//    are checked against (CsrKernels.*MatchesDag).
// Test-only: built into expmk_tests and nothing else (the same pattern as
// tests/sp_reference).

#pragma once

#include <span>
#include <vector>

#include "core/bounds.hpp"
#include "core/failure_model.hpp"
#include "graph/dag.hpp"
#include "prob/rng.hpp"
#include "scenario/scenario.hpp"

namespace expmk::ref {

/// d(G) by the Dag-walking DP: `weights` in Dag id order, finish times
/// folded over each task's predecessor list in a topological order.
[[nodiscard]] double dag_critical_path(const graph::Dag& g,
                                       std::span<const double> weights);

/// Single-source longest paths by forward relaxation over the Dag's
/// successor lists: out[j] = longest `source` -> j path, inclusive of both
/// endpoint weights, -infinity where j is unreachable (Dag id order).
[[nodiscard]] std::vector<double> dag_longest_from(
    const graph::Dag& g, graph::TaskId source,
    std::span<const double> weights);

/// First-order expected makespan d(G) + lambda sum_i a_i (d(G_i) - d(G)),
/// with every d(G_i) recomputed by a full longest-path pass.
[[nodiscard]] double first_order_naive(const graph::Dag& g,
                                       const core::FailureModel& model);

/// Tasks per precedence level (level = longest hop distance from an
/// entry); element 0 holds all entries.
[[nodiscard]] std::vector<std::vector<graph::TaskId>> level_partition(
    const graph::Dag& g);

/// d(G), the Jensen lower bound and the level-decomposition upper bound
/// of the 2-state model, the level maxima folded as DiscreteDistribution
/// objects over level_partition.
[[nodiscard]] core::MakespanBounds makespan_bounds_object_fold(
    const graph::Dag& g, const core::FailureModel& model);

/// One Monte-Carlo trial by the documented sampling law: per task in CSR
/// position order, one draw of `rng` against the scenario's constants
/// (executions capped at mc::kMaxExecutions), durations scattered into
/// Dag id order (`durations` is resized to task_count()), then the
/// makespan by dag_critical_path. When `control`
/// is non-null it receives the control-variate statistic
/// sum_v a_v * (executions_v - 1), accumulated in position order.
double reference_trial(const scenario::Scenario& sc, prob::McRng& rng,
                       std::vector<double>& durations,
                       double* control = nullptr);

}  // namespace expmk::ref
