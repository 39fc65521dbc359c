// graph/csr.hpp
//
// Immutable compressed-sparse-row (CSR) view of a Dag, built once and then
// shared by every hot loop that evaluates the graph hundreds of thousands
// of times (the Monte-Carlo trial kernel above all).
//
// Two layout decisions carry the speedup over walking the Dag directly:
//
//  1. Flat adjacency. Predecessor and successor lists live in two
//     contiguous index arrays addressed by offset arrays, instead of a
//     std::vector<std::vector<TaskId>> whose per-vertex heap blocks
//     scatter across the allocator. One trial touches the predecessor
//     array exactly once, in order.
//
//  2. Topological renumbering. Vertices are renumbered so that position
//     0..n-1 IS a topological order of the Dag. Dynamic programs over the
//     graph (longest path, levels) then iterate positions sequentially
//     with no indirection through a topo-order array, and their finish[]
//     scratch is written strictly left to right — the access pattern the
//     prefetcher likes.
//
// All CSR kernels take caller-provided scratch spans and perform ZERO
// allocation per call (see DESIGN.md for the scratch-buffer convention).
// Weights/scratch passed to the kernels are in *position* order; use
// order()/position() to translate to and from Dag task ids.

#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/dag.hpp"
#include "util/contracts.hpp"

namespace expmk::graph {

/// Flattened, topologically renumbered, immutable view of a Dag.
///
/// Invariant: for every edge (u, v) of the source Dag,
/// position(u) < position(v). Hence iterating positions 0..n-1 is a
/// forward (topological) sweep and n-1..0 a backward one.
class CsrDag {
 public:
  /// The empty view (no tasks).
  CsrDag() = default;

  /// Builds the view; O(V + E). Throws std::invalid_argument on a cycle.
  explicit CsrDag(const Dag& g);

  /// Reweight constructor for Scenario::patch: copies `base`'s adjacency,
  /// ordering and offset arrays verbatim (no Kahn re-run — the structure
  /// is unchanged, so the topological renumbering is too) and permutes
  /// `weights_by_id` (Dag id order, size task_count()) into position
  /// order. O(V + E) memcpy instead of the full sort.
  CsrDag(const CsrDag& base, std::span<const double> weights_by_id);

  [[nodiscard]] std::size_t task_count() const noexcept {
    return weights_.size();
  }
  [[nodiscard]] std::size_t edge_count() const noexcept {
    return pred_index_.size();
  }

  /// order()[pos] = Dag task id at that position; a topological order.
  [[nodiscard]] std::span<const TaskId> order() const noexcept {
    return order_;
  }
  /// position()[id] = CSR position of Dag task `id`.
  [[nodiscard]] std::span<const std::uint32_t> position() const noexcept {
    return position_;
  }
  [[nodiscard]] std::uint32_t position_of(TaskId id) const {
    return position_.at(id);
  }
  [[nodiscard]] TaskId original_id(std::uint32_t pos) const {
    return order_.at(pos);
  }

  /// Task weights permuted into position order.
  [[nodiscard]] std::span<const double> weights() const noexcept {
    return weights_;
  }

  /// Predecessor positions of the vertex at `pos`.
  [[nodiscard]] std::span<const std::uint32_t> preds(
      std::uint32_t pos) const {
    return {pred_index_.data() + pred_offsets_[pos],
            pred_index_.data() + pred_offsets_[pos + 1]};
  }
  /// Successor positions of the vertex at `pos`.
  [[nodiscard]] std::span<const std::uint32_t> succs(
      std::uint32_t pos) const {
    return {succ_index_.data() + succ_offsets_[pos],
            succ_index_.data() + succ_offsets_[pos + 1]};
  }

  // Raw arrays for kernels that hand-roll the inner loop.
  [[nodiscard]] std::span<const std::uint32_t> pred_offsets() const noexcept {
    return pred_offsets_;
  }
  [[nodiscard]] std::span<const std::uint32_t> pred_index() const noexcept {
    return pred_index_;
  }
  [[nodiscard]] std::span<const std::uint32_t> succ_offsets() const noexcept {
    return succ_offsets_;
  }
  [[nodiscard]] std::span<const std::uint32_t> succ_index() const noexcept {
    return succ_index_;
  }

 private:
  std::vector<double> weights_;                 // position order
  std::vector<TaskId> order_;                   // position -> Dag id
  std::vector<std::uint32_t> position_;         // Dag id -> position
  std::vector<std::uint32_t> pred_offsets_{0};  // size n+1
  std::vector<std::uint32_t> pred_index_;       // size E, positions
  std::vector<std::uint32_t> succ_offsets_{0};  // size n+1
  std::vector<std::uint32_t> succ_index_;       // size E, positions
};

/// d(G) over the CSR view with caller scratch; zero allocation. `weights`
/// and `finish` are in position order and must have size task_count();
/// `finish` is overwritten (finish[v] = longest path ending at v). The
/// length of a path is the sum of its tasks' weights.
EXPMK_NOALLOC [[nodiscard]] double critical_path_length(const CsrDag& g,
                                          std::span<const double> weights,
                                          std::span<double> finish);

/// Convenience: d(G) of a Dag with its own weights — builds the CSR view
/// and runs the kernel above (allocates; not for hot paths).
[[nodiscard]] double critical_path_length(const Dag& g);

/// Single-source longest paths from the vertex at `source` position, into
/// caller scratch; zero allocation. On return dist[v] = longest source->v
/// path (inclusive of both endpoint weights) for v >= source, -infinity
/// where unreachable; entries below `source` are untouched (positions
/// before `source` are never reachable — the renumbering is topological).
EXPMK_NOALLOC void longest_from(const CsrDag& g, std::uint32_t source,
                  std::span<const double> weights, std::span<double> dist);

/// Blocked longest paths: `nlanes` consecutive sources base, base+1, ...,
/// base+nlanes-1 swept in ONE pass over the CSR edges, into a vertex-major
/// lane matrix (dist[v * nlanes + l] is lane l's entry for position v; the
/// span must hold task_count() * nlanes doubles). Lane l reproduces
/// longest_from(g, base + l, ...) bit for bit for every v >= base + l:
/// the per-lane "ignore predecessors below my source" rule is realized by
/// seeding positions in [base, base+l) with -infinity, which IEEE
/// arithmetic then propagates exactly like the scalar skip (-inf never
/// wins a max; -inf + w stays -inf for finite w). Entries at positions
/// below `base` are untouched; entries for v < base + l within the block
/// read -infinity. Requires 1 <= nlanes and base + nlanes <= task_count().
/// This is the cache-blocked engine under core::second_order's pair
/// sweep: one edge pass serves nlanes sources instead of one.
EXPMK_NOALLOC void longest_from_block(const CsrDag& g, std::uint32_t base,
                        std::uint32_t nlanes, std::span<const double> weights,
                        std::span<double> dist);

/// Top and bottom levels over the CSR view into caller scratch, one
/// forward and one backward sweep; returns d(G) = max_v top[v] + bottom[v].
/// Zero allocation. The conventions are the scheduling-theory ones (the
/// paper's Section III definitions contain well-known typos):
///   top[v]    = longest path ending just BEFORE v (0 for entry tasks);
///   bottom[v] = longest path starting AT v, inclusive of v's weight.
/// Shared by the first- and second-order estimators, criticality, the
/// bottom-level priorities and the slacks.
EXPMK_NOALLOC double compute_levels(const CsrDag& g, std::span<const double> weights,
                      std::span<double> top, std::span<double> bottom);

}  // namespace expmk::graph
