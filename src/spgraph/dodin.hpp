// spgraph/dodin.hpp
//
// Dodin's bound (B. Dodin, "Bounding the project completion time
// distribution in PERT networks", Operations Research 33(4), 1985) — the
// first competitor estimator of the paper's evaluation.
//
// The general AoA network is transformed into a series-parallel one:
// series/parallel reductions are applied exhaustively; when the network is
// irreducible, a node is *duplicated* and the copies of the affected arc's
// duration are treated as independent random variables — which is exactly
// where the approximation (and Dodin's bias) comes from. The process
// repeats until a single source->sink arc remains, whose distribution
// approximates the makespan law.
//
// Duplication strategy. We use "cost-1" sites only: a join (in >= 2,
// out == 1) loses one in-arc to a clone carrying a copy of its single
// out-arc; a fork (in == 1, out >= 2) loses one out-arc to a clone
// carrying a copy of its single in-arc. Either way the clone has degree
// (1,1) and series-merges immediately, so the alive arc count is
// non-increasing and the total number of duplications is O(|V| + |E|) —
// unlike the classical copy-all-out-arcs rule, whose duplication count
// explodes combinatorially on the dense factorization DAGs (measured:
// 14,700 duplications for Cholesky k=8 vs a few hundred here). Measured
// at 256 atoms and pfail 0.01: LU k=8 979, QR k=8 654, Cholesky k=10
// 1,164, LU k=20 33,465 duplications. Each one costs O(live nodes + live
// arcs) of graph bookkeeping (flat_network.cpp), on top of the
// distribution arithmetic of the merges it enables. In an
// exhaustively reduced network the topologically-first internal node is
// always a fork, so a site always exists; joins are preferred when
// present, matching Dodin's original join-duplication rule.
//
// Distribution supports are capped at `max_atoms` (mean-preserving
// adjacent merges); the cap is an accuracy/time knob swept by
// bench/ablation_dodin_atoms.

#pragma once

#include <cstddef>

#include "exp/workspace.hpp"
#include "graph/dag.hpp"
#include "prob/discrete_distribution.hpp"
#include "prob/dist_kernels.hpp"
#include "scenario/scenario.hpp"
#include "util/contracts.hpp"

namespace expmk::sp {

/// Tuning knobs for the Dodin transformation.
struct DodinOptions {
  /// Atom budget per intermediate distribution; 0 = exact (exponential
  /// blow-up risk on non-trivial graphs — use only in tests).
  std::size_t max_atoms = 256;
  /// Safety valve: abort (throw std::runtime_error) after this many node
  /// duplications. Our largest experiment (LU k=20) needs well under this.
  std::size_t max_duplications = 2'000'000;
};

/// Result of the transformation.
struct DodinFlatResult {
  double mean = 0.0;  ///< E[makespan] of the final single-arc law
  std::size_t duplications = 0;  ///< nodes cloned
  std::size_t series_reductions = 0;
  std::size_t parallel_reductions = 0;
  /// Atom-cap truncation accounting across the first reduction pass AND
  /// every post-duplication rewrite pass; the certified envelope puts
  /// the untruncated Dodin mean in
  /// [mean - truncation.up, mean + truncation.down] (see
  /// prob/dist_kernels.hpp for the math).
  prob::dist_kernels::TruncationCert truncation;
};

/// Both entry points run the full transformation on the flat engine
/// (flat_network.cpp) over `ws`-leased arenas — ZERO heap allocations at
/// steady state on a warm workspace, bit-identical to the object-model
/// reference in tests/sp_reference.cpp,
/// pinned by tests/test_flat_spgraph.cpp. When `capture` is non-null the
/// final makespan law is materialized into it (allocates).

/// Scenario entry (the registry's `dodin`, the paper pipeline): task i's
/// arc carries its 2-state law (a_i w.p. p_i, else 2 a_i) from the
/// scenario's cached success probabilities — heterogeneous rates
/// supported. The scenario's retry model must be TwoState.
EXPMK_NOALLOC [[nodiscard]] DodinFlatResult dodin_two_state_flat(
    const scenario::Scenario& sc, const DodinOptions& options,
    exp::Workspace& ws, prob::DiscreteDistribution* capture = nullptr);

/// Laws entry (`dodin.hier` on the SP-tree quotient): task i's arc
/// carries `laws.law(i)` verbatim. Throws std::invalid_argument unless
/// the table holds exactly one non-empty law per task of `g` (as for
/// evaluate_sp_laws).
EXPMK_NOALLOC [[nodiscard]] DodinFlatResult dodin_laws(
    const graph::Dag& g, const prob::dist_kernels::LawTable& laws,
    const DodinOptions& options, exp::Workspace& ws,
    prob::DiscreteDistribution* capture = nullptr);

}  // namespace expmk::sp
