// normal/sculli.hpp
//
// Sculli's method (D. Sculli, "The completion time of PERT networks",
// J. Opl. Res. Soc. 34(2), 1983) — the paper's "Normal" competitor.
//
// Every task duration is replaced by a normal variable with the same mean
// and variance as its 2-state law; completion times are propagated through
// the DAG assuming every intermediate quantity is normal:
//   C_i = max_{j in Pred(i)} C_j  +  X_i,
// where the max of two normals is collapsed back to a normal with Clark's
// moments (independence assumed: rho = 0 — Sculli's simplification), and
// the final makespan is the Clark fold of all exit completion times.
// One pass: O(|V| + |E|) folds.

#pragma once

#include "core/failure_model.hpp"
#include "exp/workspace.hpp"
#include "prob/normal.hpp"
#include "scenario/scenario.hpp"
#include "util/contracts.hpp"

namespace expmk::normal {

/// Mean/variance of a single task's duration from its own success
/// probability p = e^{-lambda_i a}:
///   TwoState:  mean a(2-p), var a^2 p(1-p)
///   Geometric: mean a/p,    var a^2 (1-p)/p^2
/// The per-task form every Normal estimator uses (heterogeneous rates
/// differ only in where p comes from).
EXPMK_NOALLOC [[nodiscard]] prob::NormalMoments duration_moments_p(double a, double p,
                                                     core::RetryModel kind);

/// Result of a normal-approximation traversal.
struct NormalEstimate {
  prob::NormalMoments makespan;  ///< approximated makespan moments
  [[nodiscard]] double expected_makespan() const { return makespan.mean; }
};

/// Sculli's method (correlations ignored), retry model from the scenario;
/// heterogeneous rates supported. The completion-moment array (the
/// method's only O(V) scratch) is leased from `ws`, and the exit fold
/// reads the scenario's cached exits(): ZERO heap allocations on a warm
/// workspace.
EXPMK_NOALLOC [[nodiscard]] NormalEstimate sculli(const scenario::Scenario& sc,
                                    exp::Workspace& ws);

}  // namespace expmk::normal
