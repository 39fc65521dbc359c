// spgraph/sp_reduce.hpp
//
// Exhaustive series/parallel reduction of a two-terminal AoA network —
// the recognition algorithm of Valdes, Tarjan and Lawler specialized to
// our use: a network is (two-terminal) series-parallel iff the rewrite
// system below reduces it to a single source->sink arc.
//
//   series:   internal node v with in-degree 1 and out-degree 1:
//             arcs (u,v), (v,w) merge into (u,w) with the *convolution*
//             of their duration distributions;
//   parallel: two arcs with identical endpoints (u,w) merge into one arc
//             with the distribution of the *maximum* (independent).
//
// A task DAG (activity-on-node) converts to a two-terminal AoA network as
// follows: every task i becomes an arc (u_i -> v_i) carrying the task's
// duration distribution; every precedence edge (i, j) becomes a
// zero-duration arc (v_i -> u_j); a virtual source s feeds every entry's
// u-node and every exit's v-node feeds a virtual sink t. The network's
// s-to-t "project duration" then equals the DAG's makespan.
//
// On an SP network the resulting single arc carries the exact makespan
// distribution (exact modulo the atom budget). On a non-SP network the
// reductions stall; Dodin's algorithm (dodin.hpp) then duplicates a node
// and resumes.
//
// Both entry points run the flat engine (flat_network.cpp) on
// `ws`-leased arenas: ZERO heap allocations at steady state on a warm
// workspace, and bit-identical (operation order and all) to the
// object-model reference reduction in tests/sp_reference.cpp, which
// tests/test_flat_spgraph.cpp pins. When
// `capture` is non-null and the network is SP, the makespan law is
// materialized into it (allocates).

#pragma once

#include <cstddef>
#include <limits>

#include "exp/workspace.hpp"
#include "graph/dag.hpp"
#include "prob/discrete_distribution.hpp"
#include "prob/dist_kernels.hpp"
#include "scenario/scenario.hpp"
#include "util/contracts.hpp"

namespace expmk::sp {

/// Outcome of exhaustive reduction.
struct ReduceStats {
  std::size_t series = 0;     ///< series merges applied
  std::size_t parallel = 0;   ///< parallel merges applied
  /// Atom-cap truncation accounting: operations that hit the cap
  /// (`truncation.events`), individual pair merges, and the certified
  /// expectation-shift envelope — the untruncated pipeline's mean lies
  /// in [mean - truncation.up, mean + truncation.down] (see
  /// prob/dist_kernels.hpp).
  prob::dist_kernels::TruncationCert truncation;
  bool reduced_to_single_arc = false;
};

/// Result of reducing a network that is (or is not) series-parallel.
struct SpFlatEvaluation {
  bool is_series_parallel = false;
  /// E[makespan]; NaN unless is_series_parallel.
  double mean = std::numeric_limits<double>::quiet_NaN();
  ReduceStats stats;
};

/// Scenario entry (the registry's `sp`): task i's arc carries its 2-state
/// law (a_i w.p. p_i, else 2 a_i; a point mass at 0 for a zero-weight
/// task) from the scenario's cached success probabilities —
/// heterogeneous rates supported. `max_atoms` bounds every intermediate
/// distribution (0 = exact). The scenario's retry model must be TwoState.
EXPMK_NOALLOC SpFlatEvaluation evaluate_sp_flat(const scenario::Scenario& sc,
                                  std::size_t max_atoms, exp::Workspace& ws,
                                  prob::DiscreteDistribution* capture = nullptr);

/// Laws entry (`sp.hier` on the SP-tree quotient): task i's arc carries
/// `laws.law(i)` verbatim. Throws std::invalid_argument unless the table
/// holds exactly one non-empty law per task of `g` (task_count + 1
/// monotone offsets, the last one inside the atom span).
EXPMK_NOALLOC SpFlatEvaluation evaluate_sp_laws(
    const graph::Dag& g, const prob::dist_kernels::LawTable& laws,
    std::size_t max_atoms, exp::Workspace& ws,
    prob::DiscreteDistribution* capture = nullptr);

}  // namespace expmk::sp
