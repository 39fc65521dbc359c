// core/bottom_levels.hpp
//
// Failure-aware bottom levels: the quantity the paper's introduction
// motivates ("computing the expected bottom-level of a task ... is key to
// designing silent-error-aware versions of effective list scheduling
// heuristics") and its conclusion proposes as future work.
//
// For task i, the failure-aware bottom level is the first-order expected
// longest path from i to any exit in the sub-DAG of i's descendants.
// Doubling a descendant j stretches the best i-to-exit path through j to
// lp(i,j) + a_j + (bottom(j) - a_j) = lp(i,j) + bottom(j), where lp(i,j)
// is the longest i -> j path (inclusive of both endpoint weights), so
//
//   bl_lambda(i) = bottom(i) + lambda *
//       sum_{j in desc(i) U {i}} a_j * max(0, lp(i,j)+bottom(j)-bottom(i)).
//
// (For j = i the term is a_i^2 * lambda: doubling i stretches every path
// from i by a_i.) Computing all levels costs one single-source
// longest-path per task: O(|V| (|V| + |E|)). The scheduler uses these as
// CP priorities.

#pragma once

#include <vector>

#include "graph/dag.hpp"
#include "scenario/scenario.hpp"

namespace expmk::core {

/// Failure-aware (first-order expected) bottom level of every task, in Dag
/// id order. Under heterogeneous per-task rates the correction generalizes
/// term-by-term (lambda_j a_j in place of lambda a_j), as in first_order.
[[nodiscard]] std::vector<double> failure_aware_bottom_levels(
    const scenario::Scenario& sc);

/// Single-task variant (useful when only a few priorities are needed).
[[nodiscard]] double failure_aware_bottom_level(const scenario::Scenario& sc,
                                                graph::TaskId task);

}  // namespace expmk::core
