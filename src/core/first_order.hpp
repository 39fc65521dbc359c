// core/first_order.hpp
//
// The paper's contribution (Section IV): a first-order (in lambda)
// approximation of the expected makespan of a DAG whose tasks are subject
// to silent errors.
//
// Derivation recap. Neglecting O(lambda^2) terms, at most one task fails,
// and
//     E(G) = d(G) + lambda * sum_i a_i * ( d(G_i) - d(G) ) + O(lambda^2),
// where d(G) is the failure-free critical-path length and G_i is G with
// a_i doubled. Because G_i differs from G in a single weight,
//     d(G_i) = max( d(G), top(i) + a_i + bottom(i) ),
// where top(i) + bottom(i) is the longest path through i — so the full
// approximation costs one forward pass + one backward pass: O(|V| + |E|).
// The paper states the naive O(|V|^2 + |V||E|) bound and notes that lower
// complexity is achievable; the test suite keeps the naive
// recompute-everything variant as an oracle (tests/reference_estimators)
// and checks the two agree to machine precision.

#pragma once

#include "core/failure_model.hpp"
#include "exp/workspace.hpp"
#include "scenario/scenario.hpp"
#include "util/contracts.hpp"

namespace expmk::core {

/// Breakdown of the first-order estimate.
struct FirstOrderResult {
  /// d(G): failure-free makespan (lower bound on the expectation).
  double critical_path = 0.0;
  /// lambda * sum_i a_i * (d(G_i) - d(G)) — the first-order correction.
  double correction = 0.0;
  /// critical_path + correction.
  [[nodiscard]] double expected_makespan() const {
    return critical_path + correction;
  }
};

/// Closed-form first-order approximation, O(|V| + |E|) — the one entry
/// point. Leases the two level buffers from `ws` (one frame, two O(V)
/// spans): ZERO heap allocations on a warm workspace. Under
/// heterogeneous per-task rates the correction generalizes term-by-term —
/// P(task i fails) ~ lambda_i a_i, so
///   E(G) ~ d(G) + sum_i lambda_i a_i (d(G_i) - d(G)) + O(max lambda^2).
EXPMK_NOALLOC [[nodiscard]] FirstOrderResult first_order(const scenario::Scenario& sc,
                                           exp::Workspace& ws);

}  // namespace expmk::core
