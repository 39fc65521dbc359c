#include "normal/corlca.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace expmk::normal {

namespace {

constexpr std::uint32_t kRootless = graph::kNoTask;

/// Correlation-tree state per CSR position: parent pointers, depths, and
/// the variance of each node's completion time — a view over workspace
/// leases.
struct CorrelationTree {
  std::span<std::uint32_t> parent;
  std::span<std::uint32_t> depth;
  std::span<double> variance;

  void init() const {
    std::fill(parent.begin(), parent.end(), kRootless);
    std::fill(depth.begin(), depth.end(), 0u);
    std::fill(variance.begin(), variance.end(), 0.0);
  }

  /// Lowest common ancestor by depth-aligned walk; kRootless when the two
  /// lineages never meet (independent subtrees).
  [[nodiscard]] std::uint32_t lca(std::uint32_t a, std::uint32_t b) const {
    if (a == kRootless || b == kRootless) return kRootless;
    while (a != b) {
      if (a == kRootless || b == kRootless) return kRootless;
      if (depth[a] >= depth[b]) {
        a = parent[a];
      } else {
        b = parent[b];
      }
      if (a == kRootless || b == kRootless) return kRootless;
    }
    return a;
  }
};

/// One vertex of the CorLCA fold: reads completion moments and
/// correlation-tree state of ancestors only — the dominant lineage is a
/// predecessor and every LCA walk climbs parent pointers of ancestors —
/// and writes only v's own slots.
EXPMK_NOALLOC void corlca_vertex(const graph::CsrDag& csr,
                                 std::span<const double> p,
                                 core::RetryModel kind,
                                 std::span<prob::NormalMoments> completion,
                                 const CorrelationTree& tree,
                                 std::uint32_t v) {
  prob::NormalMoments ready{0.0, 0.0};
  std::uint32_t dominant = kRootless;
  bool first = true;
  for (const std::uint32_t u : csr.preds(v)) {
    if (first) {
      ready = completion[u];
      dominant = u;
      first = false;
      continue;
    }
    // Correlation through the LCA of the current dominant lineage and u.
    const std::uint32_t anc = tree.lca(dominant, u);
    const double cov = anc == kRootless ? 0.0 : tree.variance[anc];
    const double denom =
        std::sqrt(ready.var) * std::sqrt(completion[u].var);
    const double rho = denom > 0.0 ? cov / denom : 0.0;
    const auto fold = prob::clark_max(ready, completion[u], rho);
    // The operand with the larger mean dominates the lineage.
    if (completion[u].mean > ready.mean) dominant = u;
    ready = fold.moments;
  }
  completion[v] = prob::sum_independent(
      ready, duration_moments_p(csr.weights()[v], p[v], kind));
  tree.parent[v] = dominant;
  tree.depth[v] = dominant == kRootless ? 0 : tree.depth[dominant] + 1;
  tree.variance[v] = completion[v].var;
}

/// Folds the exit completions into the makespan estimate (the fold order
/// over `exits` is part of the pinned arithmetic).
EXPMK_NOALLOC NormalEstimate corlca_exits(
    std::span<const prob::NormalMoments> completion,
    const CorrelationTree& tree, std::span<const std::uint32_t> exits) {
  prob::NormalMoments makespan{0.0, 0.0};
  std::uint32_t dominant = kRootless;
  bool first = true;
  for (const std::uint32_t v : exits) {
    if (first) {
      makespan = completion[v];
      dominant = v;
      first = false;
      continue;
    }
    const std::uint32_t anc = tree.lca(dominant, v);
    const double cov = anc == kRootless ? 0.0 : tree.variance[anc];
    const double denom = std::sqrt(makespan.var) * std::sqrt(completion[v].var);
    const double rho = denom > 0.0 ? cov / denom : 0.0;
    const auto fold = prob::clark_max(makespan, completion[v], rho);
    if (completion[v].mean > makespan.mean) dominant = v;
    makespan = fold.moments;
  }
  return NormalEstimate{makespan};
}

}  // namespace

// Unlike clark_full's dense row linkage, CorLCA's rho-propagation is a
// depth-aligned parent-pointer walk (lca above) — data-dependent pointer
// chasing with no elementwise loop to block or vectorize, and its O(V)
// tree state is already cache-resident. It deliberately stays scalar per
// vertex while clark_full and second_order got blocked/vectorized sweeps.
EXPMK_NOALLOC NormalEstimate corlca(const scenario::Scenario& sc,
                                    exp::Workspace& ws) {
  const std::size_t n = sc.task_count();
  if (n == 0) throw std::invalid_argument("corlca: empty graph");
  const exp::Workspace::Frame frame(ws);
  const graph::CsrDag& csr = sc.csr();
  const std::span<const double> p = sc.p_success_csr();
  const core::RetryModel kind = sc.retry();
  const std::span<prob::NormalMoments> completion = ws.moments(n);
  const CorrelationTree tree{ws.u32(n), ws.u32(n), ws.doubles(n)};
  tree.init();
  for (std::uint32_t v = 0; v < n; ++v) {
    corlca_vertex(csr, p, kind, completion, tree, v);
  }
  return corlca_exits(completion, tree, sc.exits());
}

}  // namespace expmk::normal
