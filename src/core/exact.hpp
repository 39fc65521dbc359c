// core/exact.hpp
//
// Exact expected-makespan oracles by explicit enumeration. The problem is
// #P-complete, so these are exponential-time and intentionally restricted
// to small graphs; they exist as ground truth for the approximation error
// tests (|FO - exact| = O(lambda^2), |SO - exact| = O(lambda^3)) and for
// validating the Monte-Carlo engine and the series-parallel evaluator.

#pragma once

#include <cstdint>

#include "core/failure_model.hpp"
#include "exp/workspace.hpp"
#include "prob/discrete_distribution.hpp"
#include "scenario/scenario.hpp"
#include "util/contracts.hpp"

namespace expmk::core {

/// Maximum task count accepted by the enumeration oracles (2^V subsets).
inline constexpr std::size_t kMaxExactTasks = 24;

/// Exact E[makespan] of the probabilistic 2-state DAG: task i takes a_i
/// w.p. p_i = e^{-lambda_i a_i} and 2 a_i otherwise. O(2^V (V + E));
/// throws std::invalid_argument if V > kMaxExactTasks. The oracle is
/// per-task throughout, so heterogeneous per-task rates are exact too.
/// The perturbed-weight and longest-path scratch of the enumeration is
/// leased from `ws` — zero heap allocations on a warm workspace, even for
/// the oracle.
EXPMK_NOALLOC [[nodiscard]] double exact_two_state(const scenario::Scenario& sc,
                                     exp::Workspace& ws);

/// Exact full makespan distribution of the 2-state DAG (same complexity;
/// heterogeneous rates supported).
[[nodiscard]] prob::DiscreteDistribution exact_two_state_distribution(
    const scenario::Scenario& sc);

/// Exact E[makespan] under the geometric model truncated at
/// `max_executions` executions per task (the tail probability mass is
/// assigned to the largest state, so the result is exact for the truncated
/// model and a lower bound converging exponentially fast for the true
/// one). O(max_executions^V (V + E)). The flattened truncated-geometric
/// state table, the odometer and the weight/finish scratch are all leased
/// from `ws`. The enumeration is per-task throughout, so heterogeneous
/// per-task rates are exact too (validated against a hand-built
/// DiscreteDistribution oracle in tests/test_flat_spgraph.cpp).
EXPMK_NOALLOC [[nodiscard]] double exact_geometric(const scenario::Scenario& sc,
                                     int max_executions, exp::Workspace& ws);

}  // namespace expmk::core
