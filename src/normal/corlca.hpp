// normal/corlca.hpp
//
// CorLCA (Canon & Jeannot, "Correlation-aware heuristics for evaluating
// the distribution of the longest path length of a DAG with random
// weights", IEEE TPDS 2016 — the paper's reference [24]): a middle ground
// between Sculli (no correlation, O(E)) and full Clark covariance
// (exact linkage, O(V^2) memory).
//
// A *correlation tree* is maintained: every task points to its dominant
// predecessor (the operand with the larger mean in the Clark folds). The
// correlation between two completion times is then approximated through
// their lowest common ancestor in that tree:
//     Cov(C_u, C_v) ~ Var(C_lca(u,v)),
// i.e. the shared randomness is whatever both inherited from the dominant
// common ancestor. Cost: O(E * depth) time, O(V) memory.

#pragma once

#include "normal/sculli.hpp"
#include "util/contracts.hpp"

namespace expmk::normal {

/// CorLCA estimate, retry model from the scenario; heterogeneous rates
/// supported. The correlation tree (parent/depth/variance) and the
/// completion-moment array are leased from `ws`: ZERO heap allocations on
/// a warm workspace.
EXPMK_NOALLOC [[nodiscard]] NormalEstimate corlca(const scenario::Scenario& sc,
                                    exp::Workspace& ws);

}  // namespace expmk::normal
