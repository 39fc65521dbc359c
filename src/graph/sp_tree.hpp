// graph/sp_tree.hpp
//
// Hierarchical series-parallel (modular) decomposition of a task DAG.
//
// sp_collapse repeatedly contracts two exact makespan-preserving patterns
// until neither applies:
//
//   * SERIES   u -> v with out-degree(u) == 1 and in-degree(v) == 1:
//     the pair behaves like one task whose duration is the SUM of the two
//     (distribution: convolution) — v can start exactly when u finishes
//     and nothing else observes u.
//
//   * PARALLEL u, v with identical predecessor sets AND identical
//     successor sets: both start at the same instant (max over the shared
//     predecessors) and everything downstream waits for both, so the pair
//     behaves like one task whose duration is the MAX of the two
//     (distribution: max of independents). The empty pred/succ set cases
//     are included: co-entry twins share start 0, co-exit twins feed the
//     overall makespan max.
//
// Both identities are exact for independent task durations — which is the
// model: per-task failure/retry processes are independent. Same-kind
// nesting is flattened: a maximal series chain is one ordered child list
// (chain order), a parallel group one list (twin order), however many
// passes it took to form. Each list is emitted as a balanced binary tree,
// so every composite module has exactly two children and a k-child list
// adds only ceil(log2 k) levels: a change to one task re-folds the
// modules on its path to the root, not a whole chain. Sum and max are
// associative, so only the rounding and truncation grouping depends on
// the tree's shape.
//
// The result is a forest of composite modules (the SP tree) plus the
// QUOTIENT DAG whose
// nodes are the surviving modules. On a series-parallel graph the
// quotient is a single node; on library kernels (LU/QR/Cholesky) large
// repetitive regions collapse so the quotient is far smaller than the
// input; on an irreducible graph (e.g. the Wheatstone bridge core) the
// quotient equals the input and nothing is lost.
//
// The decomposition is a pure function of the adjacency STRUCTURE (never
// of weights or rates), so one SpDecomposition is shared by a Scenario
// and all of its patch() clones. Module makespan distributions are built
// bottom-up by exp::hier, memoized on a content hash of (structure,
// weights, rates, retry, atom budget) so identical modules — the point of
// repetitive kernels — are evaluated once per process.

#pragma once

#include <cstdint>
#include <vector>

#include "graph/csr.hpp"
#include "graph/dag.hpp"

namespace expmk::graph {

struct SpDecomposition {
  enum class Kind : std::uint8_t { Leaf, Series, Parallel };

  /// One node of the module forest. A composite is binary: its two
  /// children are a span into `children`, and a Series (Parallel) list of
  /// k children becomes a balanced tree of k - 1 such modules. The
  /// modules vector is ordered children-before-parents (leaves first,
  /// then each list's tree after the lists below it), so a single
  /// ascending pass evaluates bottom-up.
  struct Module {
    Kind kind = Kind::Leaf;
    TaskId task = kNoTask;          ///< Leaf: the original task id
    std::uint32_t first_child = 0;  ///< composite: offset into children
    std::uint32_t child_count = 0;  ///< composite: 2 (0 for a leaf)
  };

  std::vector<Module> modules;         ///< leaves 0..n-1, then composites
  std::vector<std::uint32_t> children; ///< concatenated child module ids

  /// The quotient DAG: one node per surviving (top-level) module, edges
  /// inherited from the input. Node weights are the SUM of the module's
  /// task weights (so the quotient is a valid Dag for structural code);
  /// evaluation injects full distributions instead.
  Dag quotient;
  /// The quotient's CSR view, built once with the decomposition (and so
  /// shared by every patch clone) for the sweeps over the quotient.
  CsrDag quotient_csr;
  /// quotient node id -> module id.
  std::vector<std::uint32_t> quotient_module;

  /// Original tasks absorbed into composite modules
  /// (= task_count - quotient.task_count()).
  std::size_t collapsed_tasks = 0;
};

/// Runs the collapse to fixpoint, then emits the balanced module trees;
/// O(passes * (V + E)), deterministic.
[[nodiscard]] SpDecomposition sp_collapse(const Dag& g);

/// All original task ids inside `module`, ascending. Test/debug helper.
[[nodiscard]] std::vector<TaskId> module_tasks(const SpDecomposition& d,
                                               std::uint32_t module);

}  // namespace expmk::graph
