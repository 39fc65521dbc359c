// tests/sp_reference.hpp
//
// The DiscreteDistribution-object series-parallel / Dodin engine: one
// heap distribution per arc and lazily compacted adjacency lists. It is
// the executable specification the library's flat engine
// (src/spgraph/flat_network.cpp) replicates operation for operation —
// tests/test_flat_spgraph.cpp pins the two bitwise. Test-only: it is
// built into expmk_tests and nothing else.

#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "graph/dag.hpp"
#include "prob/discrete_distribution.hpp"
#include "spgraph/dodin.hpp"
#include "spgraph/sp_reduce.hpp"

namespace expmk::sp_ref {

using NodeId = std::uint32_t;
using ArcId = std::uint32_t;

/// One arc; arcs are soft-deleted so ids stay stable.
struct Arc {
  NodeId from;
  NodeId to;
  prob::DiscreteDistribution dist;
  bool alive = true;
};

/// A mutable two-terminal AoA network (the DAG conversion is described in
/// spgraph/sp_reduce.hpp).
class ArcNetwork {
 public:
  /// Node layout u_i = 2i, v_i = 2i+1, source = 2n, sink = 2n+1; task
  /// arcs first, then per task its precedence / source / sink
  /// zero-duration arcs. Throws std::invalid_argument unless there is one
  /// distribution per task.
  static ArcNetwork from_dag(const graph::Dag& g,
                             std::vector<prob::DiscreteDistribution> task_dist);

  [[nodiscard]] NodeId source() const noexcept { return source_; }
  [[nodiscard]] NodeId sink() const noexcept { return sink_; }
  [[nodiscard]] std::size_t node_count() const noexcept { return out_.size(); }
  [[nodiscard]] std::size_t arc_count() const noexcept { return alive_arcs_; }
  [[nodiscard]] Arc& arc(ArcId id) { return arcs_.at(id); }

  /// Alive out-/in-arc ids in insertion order (compacted on access).
  [[nodiscard]] const std::vector<ArcId>& out_arcs(NodeId n) const;
  [[nodiscard]] const std::vector<ArcId>& in_arcs(NodeId n) const;
  [[nodiscard]] std::size_t out_degree(NodeId n) const {
    return out_arcs(n).size();
  }
  [[nodiscard]] std::size_t in_degree(NodeId n) const {
    return in_arcs(n).size();
  }

  NodeId add_node();
  ArcId add_arc(NodeId from, NodeId to, prob::DiscreteDistribution dist);
  void remove_arc(ArcId id);  ///< soft delete, idempotent
  /// Moves an arc's head: hard-removed from the old head's in-list,
  /// appended to the new head's.
  void retarget_arc(ArcId id, NodeId new_to);

 private:
  ArcNetwork() = default;

  std::vector<Arc> arcs_;
  mutable std::vector<std::vector<ArcId>> out_;
  mutable std::vector<std::vector<ArcId>> in_;
  NodeId source_ = 0;
  NodeId sink_ = 0;
  std::size_t alive_arcs_ = 0;
};

struct SpResult {
  bool is_series_parallel = false;
  prob::DiscreteDistribution makespan;  ///< meaningful when SP
  sp::ReduceStats stats;
};

/// Exhaustive series/parallel reduction (LIFO worklist seeded with every
/// node in id order).
SpResult evaluate_sp(ArcNetwork net, std::size_t max_atoms);

struct DodinResult {
  prob::DiscreteDistribution makespan;
  std::size_t duplications = 0;
  sp::ReduceStats stats;  ///< summed over every reduction pass
};

/// Dodin's transformation with the join-before-fork cost-1 duplication
/// rule (spgraph/dodin.hpp).
DodinResult dodin(ArcNetwork net, const sp::DodinOptions& options);

}  // namespace expmk::sp_ref
