// core/bounds.hpp
//
// Analytic bounds on the expected makespan of the probabilistic 2-state
// DAG — cheap certificates that sandwich every estimator:
//
//  * Jensen lower bound: E[max ...] >= max(E ...) applied path-wise gives
//    E[M] >= d(G with expected durations). Always >= d(G) itself.
//  * Failure-free lower bound: d(G) (the paper's own remark).
//  * Level-decomposition upper bound: partition tasks into precedence
//    levels L_0 < L_1 < ...; every path visits at most one task per level
//    in order, so M <= sum_l max_{i in L_l} X_i and the right side's
//    expectation is exactly computable: tasks are independent, so each
//    level's max of 2-state laws is a small distribution product. (A
//    chain/series bound in the Kleindorfer tradition.)
//
// Tests verify lower <= exact <= upper on every enumerable graph family,
// and that the first-order estimate respects the envelope at small
// lambda.

#pragma once

#include "core/failure_model.hpp"
#include "exp/workspace.hpp"
#include "scenario/scenario.hpp"
#include "util/contracts.hpp"

namespace expmk::core {

/// The bound pair (plus the baseline d(G)).
struct MakespanBounds {
  double failure_free = 0.0;   ///< d(G): lower bound
  double jensen_lower = 0.0;   ///< d(G, expected durations): tighter lower
  double level_upper = 0.0;    ///< sum of per-level expected maxima
};

/// Computes all bounds under the 2-state model, O(V + E) plus the
/// per-level max distributions (atom count bounded by level width + 1) —
/// the serial kernel. Both bounds are built from per-task success
/// probabilities, so heterogeneous rates are supported: Jensen uses
/// E[X_i] = a_i (2 - p_i), the level bound each task's own 2-state law.
/// All scratch is leased: the Jensen longest-path buffer, the level
/// partition (flat counting sort), and the per-level max distributions
/// (dist_kernels::max_of on leased atom arrays; tests/reference_estimators
/// keeps a value-level fold of the same kernels as the bitwise oracle).
/// ZERO heap allocations on a warm workspace.
EXPMK_NOALLOC [[nodiscard]] MakespanBounds makespan_bounds(const scenario::Scenario& sc,
                                             exp::Workspace& ws);

/// Fan-out variant: the per-level expected-maximum folds — the dominant
/// cost — fan out across `workers` threads through util::for_each_chunk
/// (levels are mutually independent; each worker leases its arenas from
/// the thread-local pooled workspace), and the per-level means fold
/// serially in level order. Bit-identical to the serial kernel for any
/// worker count; `workers <= 1` delegates to it (the fan-out is not
/// EXPMK_NOALLOC — the type-erased chunk body and a helper's first
/// leases allocate).
[[nodiscard]] MakespanBounds makespan_bounds(const scenario::Scenario& sc,
                                             exp::Workspace& ws,
                                             std::size_t workers);

}  // namespace expmk::core
