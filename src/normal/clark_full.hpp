// normal/clark_full.hpp
//
// Clark's method with full covariance propagation — the correlation-aware
// variant of the Normal estimator (the paper cites Clark's formulas "of
// two (correlated) normal distributions").
//
// Sculli's independence assumption systematically biases the estimate on
// graphs with shared ancestors (fork-join re-convergence). This variant
// tracks Cov(C_i, C_j) for *every* pair of completion times:
//   * sum step:  C_i = M + X_i with X_i independent =>
//       Cov(C_i, Z) = Cov(M, Z) for all earlier Z;
//   * max step:  Clark's linkage formula
//       Cov(max(X,Y), Z) = Cov(X,Z) Phi(beta) + Cov(Y,Z) Phi(-beta).
// Cost: O(|V|^2) memory and O(|E| |V|) time — the expensive-but-accurate
// end of the Normal family (cf. Table I, where "Normal" needed ~20 min at
// k = 20 in the authors' implementation).

#pragma once

#include "normal/sculli.hpp"
#include "util/contracts.hpp"

namespace expmk::normal {

/// Safety limit on |V| for the dense covariance matrix (~8 bytes * V^2).
inline constexpr std::size_t kClarkFullMaxTasks = 8192;

/// Clark propagation with the full covariance matrix, retry model from the
/// scenario; heterogeneous rates supported. Throws std::invalid_argument
/// when |V| exceeds kClarkFullMaxTasks. The dense V x V covariance matrix,
/// the linkage row and the completion moments are leased from `ws` (the
/// matrix is the single largest lease in the library): ZERO heap
/// allocations on a warm workspace.
EXPMK_NOALLOC [[nodiscard]] NormalEstimate clark_full(const scenario::Scenario& sc,
                                        exp::Workspace& ws);

}  // namespace expmk::normal
