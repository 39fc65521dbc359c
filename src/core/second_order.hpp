// core/second_order.hpp
//
// Second-order (in lambda) approximation of the expected makespan — the
// extension sketched in the paper's conclusion ("our general approach ...
// can be used to obtain a (more complicated but still tractable) second
// order approximation").
//
// Expanding E(G) = sum_S P(S) L(S) to O(lambda^3), with A = sum_i a_i:
//
//   2-state model (a task fails at most once):
//     E2 = d(G) * (1 - lambda A + lambda^2 A^2 / 2)
//        + sum_i [ lambda a_i + lambda^2 a_i (a_i/2 - A) ] * d(G_i)
//        + lambda^2 * sum_{i<j} a_i a_j * d(G_ij)
//
//   Geometric model (re-executions may fail again): the single-failure
//   coefficient becomes -a_i (A + a_i/2) and a triple-execution term
//   + lambda^2 sum_i a_i^2 d(G_i+) is added, where G_i+ has weight 3 a_i.
//
// d(G_ij) (both a_i and a_j doubled) is computed exactly without
// re-running longest-path per pair:
//   d(G_ij) = max( d(G), thr2(i), thr2(j), cross(i,j) )
// where thr2(x) = top(x) + 2 a_x + (bottom(x) - a_x) is the best path
// through x alone, and cross(i,j) = top(i) + lp(i,j) + a_i + a_j +
// (bottom(j) - a_j) is the best path through both (lp = longest i->j path,
// inclusive; only defined when j is reachable from i). Streaming one
// single-source longest-path per task gives O(|V| (|V| + |E|)) time and
// O(|V|) extra memory.

#pragma once

#include "core/failure_model.hpp"
#include "exp/workspace.hpp"
#include "scenario/scenario.hpp"
#include "util/contracts.hpp"

namespace expmk::core {

/// Breakdown of the second-order estimate.
struct SecondOrderResult {
  double critical_path = 0.0;   ///< d(G)
  double first_order = 0.0;     ///< the O(lambda) estimate, for reference
  double expected_makespan = 0.0;  ///< the O(lambda^2)-exact estimate
};

/// Second-order approximation, O(|V| (|V| + |E|)) — the serial kernel.
/// The retry model comes from the scenario and selects the 2-state or
/// geometric coefficient set (see file comment). All O(V) scratch
/// (levels, d(G_i), the streaming longest-path buffer, the heterogeneous
/// l_i vector) is leased from `ws`: ZERO heap allocations on a warm
/// workspace, including inside the O(|V|^2) pair sweep. Under
/// heterogeneous per-task rates the expansion generalizes with
/// l_i = lambda_i a_i and L = sum l_i:
///   E2 = d(G) (1 - L + L^2/2)
///      + sum_i [ l_i + l_i (l_i/2 - L) ] d(G_i)        (2-state)
///      + sum_{i<j} l_i l_j d(G_ij),
/// with the geometric single-failure coefficient -l_i (L + l_i/2) and
/// triple term + sum_i l_i^2 d(G_i+) — setting lambda_i = lambda recovers
/// the uniform formulas in the file comment verbatim.
EXPMK_NOALLOC [[nodiscard]] SecondOrderResult second_order(const scenario::Scenario& sc,
                                             exp::Workspace& ws);

/// Fan-out variant: the O(V) level sweeps stay serial and the O(V^2) pair
/// sweep fans its 8-source blocks out across `workers` threads through
/// util::for_each_chunk (each worker leases its own lane matrix from the
/// thread-local pooled workspace); per-block lane partials fold into the
/// pair sum in the serial kernel's source order. Bit-identical to the
/// serial kernel for any worker count; `workers <= 1` delegates to it
/// (the fan-out is not EXPMK_NOALLOC — the type-erased chunk body and a
/// helper's first leases allocate).
[[nodiscard]] SecondOrderResult second_order(const scenario::Scenario& sc,
                                             exp::Workspace& ws,
                                             std::size_t workers);

}  // namespace expmk::core
