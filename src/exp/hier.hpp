// exp/hier.hpp
//
// Hierarchical (SP-tree) expected-makespan evaluation — the million-task
// path.
//
// graph::sp_collapse (graph/sp_tree.hpp) contracts exact series/parallel
// patterns of a task DAG into composite modules and leaves a quotient DAG
// of the surviving modules. Because both contractions are
// makespan-preserving for independent task durations, the makespan law of
// the ORIGINAL graph equals the makespan law of the QUOTIENT graph whose
// node durations are the modules' own makespan distributions:
//
//   * Leaf module      -> the task's 2-state law  a_i w.p. p_i else 2 a_i
//   * Series module    -> convolution of its children's laws
//   * Parallel module  -> max of its children's laws
//
// build_module_distributions() materializes those laws bottom-up with an
// atom budget (0 = exact) and certified truncation accounting, on the
// prob::dist_kernels span kernels in the caller's exp::Workspace, and
// MEMOIZES every composite module by a 128-bit content hash of (module
// structure, task weights, success probabilities, atom budget) in the
// scenario's own law store (scenario/law_store.hpp). A lookup tries that
// store, then the process's weak index of every law some live scenario
// holds, and only then builds. Repetitive kernels — LU/QR/Cholesky tiles,
// replicated fork-join stages — contain thousands of structurally
// identical modules, so each distinct module is built once for as long
// as a scenario holding it lives, however often it appears: a
// Scenario::patch clone finds every module outside the patched cone in
// its parent's laws, and the laws it builds itself die with it.
//
// Three evaluators consume the quotient. The first two hand it to the
// flat SP/Dodin engine (spgraph/) as an AoA network whose task arcs carry
// the module laws, reduced in the caller's Workspace:
//
//   * evaluate_sp_hier    exact SP reduction of the quotient ("sp.hier").
//     Exact (up to the atom budget) whenever the quotient's AoA network
//     is two-terminal series-parallel — which includes every graph the
//     flat "sp" evaluator accepts, and more: the collapse often reduces a
//     non-SP-looking input to an SP quotient.
//   * evaluate_dodin_hier Dodin's bound on the quotient ("dodin.hier") —
//     works on any quotient, duplications now scale with the QUOTIENT
//     size, not the task count.
//   * evaluate_mc_hier    Monte-Carlo over the quotient ("mc.hier"):
//     each trial inverse-CDF samples (dist_kernels::quantile) one
//     duration per quotient node from its module law and runs the
//     finish-time DP — an unbiased estimator of the (truncation-capped)
//     makespan whose per-trial cost is O(quotient), not O(V).
//     Bit-identical across thread counts (fixed chunk partition,
//     chunk-order reduction, counter-based per-trial RNG — the same
//     discipline as mc/engine.cpp).
//
// Two-state retry only (like sp / dodin): the module laws are built from
// two-state leaves. All entry points throw std::invalid_argument on a
// geometric-retry scenario; the evaluator registry gates this before the
// call.

#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>

#include "exp/workspace.hpp"
#include "prob/discrete_distribution.hpp"
#include "prob/dist_kernels.hpp"
#include "scenario/scenario.hpp"

namespace expmk::exp::hier {

/// Decomposition + memoization accounting for one evaluation.
struct HierStats {
  std::size_t module_count = 0;    ///< modules in the SP decomposition
  std::size_t quotient_tasks = 0;  ///< nodes of the quotient DAG
  std::size_t collapsed_tasks = 0; ///< original tasks absorbed into modules
  std::uint64_t memo_hits = 0;     ///< composite modules served from a store
  std::uint64_t memo_misses = 0;   ///< composite modules built this call
};

/// Output of the bottom-up module build.
struct ModuleDists {
  /// Makespan law per quotient node, indexed by quotient TaskId; views
  /// into the workspace the build leased from.
  prob::dist_kernels::LawTable laws;
  /// Certified truncation accumulated across every convolve/max the build
  /// performed (including the stored subtree accounting of memo hits).
  prob::dist_kernels::TruncationCert truncation;
  HierStats stats;
};

/// Builds the per-quotient-node laws bottom-up over the scenario's cached
/// SpDecomposition. `max_atoms` caps every intermediate law (0 = exact).
/// Each composite folds its children left to right, one
/// dist_kernels::convolve (series) or max_of (parallel) per step, each
/// step truncated to the budget when over it. Every lease — the table
/// included — stays checked out in the caller's current Workspace frame,
/// so the table is valid until that frame closes; open a
/// Workspace::Frame around the call and the table's use. On a warm
/// workspace, with every composite it reaches already in the scenario's
/// own law store, the build performs no heap allocation. Throws
/// std::invalid_argument unless the retry model is TwoState.
[[nodiscard]] ModuleDists build_module_distributions(
    const scenario::Scenario& sc, std::size_t max_atoms, Workspace& ws);

/// Result of the exact-SP quotient evaluation ("sp.hier").
struct HierSpResult {
  /// False when the quotient's AoA network is not two-terminal SP — the
  /// evaluator reports supported == false then.
  bool is_series_parallel = false;
  double mean = std::numeric_limits<double>::quiet_NaN();
  prob::dist_kernels::TruncationCert truncation;
  HierStats stats;
};

/// The quotient's AoA network — one arc per quotient node carrying its
/// module law — is reduced on the flat engine (spgraph/sp_reduce.hpp) in
/// `ws`. When `capture` is non-null and the quotient is SP, the makespan
/// law is materialized into it.
[[nodiscard]] HierSpResult evaluate_sp_hier(
    const scenario::Scenario& sc, std::size_t max_atoms, Workspace& ws,
    prob::DiscreteDistribution* capture = nullptr);

/// Result of Dodin's bound on the quotient ("dodin.hier").
struct HierDodinBound {
  double mean = std::numeric_limits<double>::quiet_NaN();
  std::size_t duplications = 0;  ///< quotient nodes cloned by Dodin
  prob::dist_kernels::TruncationCert truncation;
  HierStats stats;
};

/// Dodin's transformation of the quotient on the flat engine
/// (spgraph/dodin.hpp) in `ws`; `capture` as for evaluate_sp_hier.
[[nodiscard]] HierDodinBound evaluate_dodin_hier(
    const scenario::Scenario& sc, std::size_t max_atoms, Workspace& ws,
    prob::DiscreteDistribution* capture = nullptr);

/// Result of quotient Monte-Carlo ("mc.hier").
struct HierMcResult {
  double mean = std::numeric_limits<double>::quiet_NaN();
  double std_error = 0.0;
  std::uint64_t trials = 0;
  /// Module-build truncation only — the sampling noise is std_error's
  /// job, never the envelope's.
  prob::dist_kernels::TruncationCert truncation;
  HierStats stats;
};

/// The module laws are built in `ws` and sampled from there. `threads`
/// = 0 means hardware concurrency; results are bit-identical for every
/// thread count. `max_atoms` caps the module laws sampled from (0 =
/// exact — beware exponential supports on deep series chains).
[[nodiscard]] HierMcResult evaluate_mc_hier(const scenario::Scenario& sc,
                                            std::size_t max_atoms,
                                            Workspace& ws,
                                            std::uint64_t trials,
                                            std::uint64_t seed,
                                            std::size_t threads = 0);

/// Module-law accounting across every scenario's law store.
struct MemoStats {
  std::uint64_t hits = 0;    ///< composite lookups served (since memo_clear)
  std::uint64_t misses = 0;  ///< composite lookups built (since memo_clear)
  std::size_t entries = 0;   ///< laws alive now, held by live scenarios
  std::size_t bytes = 0;     ///< atom bytes of those laws
};

[[nodiscard]] MemoStats memo_stats();

/// Drops the process index of live laws and zeroes hits and misses
/// (tests and benchmarks). Every live scenario keeps the laws its own
/// store holds, so `entries` and `bytes` fall only as scenarios die.
void memo_clear();

}  // namespace expmk::exp::hier
