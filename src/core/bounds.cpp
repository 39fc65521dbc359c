#include "core/bounds.hpp"

#include <algorithm>
#include <span>

#include "graph/csr.hpp"
#include "prob/dist_kernels.hpp"
#include "util/thread_pool.hpp"

namespace expmk::core {

namespace {

/// Pool tasks per worker in the fan-out variant: enough for load balance,
/// few enough that per-task submission stays negligible.
constexpr std::size_t kChunksPerWorker = 4;

/// Jensen lower bound over the compiled scenario, into leased scratch —
/// shared verbatim by the serial kernel and its fan-out variant. The
/// bound is the 2-state one whatever the retry model: d(G) with every
/// duration at its 2-state mean a_i (2 - p_i).
EXPMK_NOALLOC double jensen_bound(const scenario::Scenario& sc,
                                  exp::Workspace& ws) {
  const graph::CsrDag& csr = sc.csr();
  const std::size_t n = csr.task_count();
  const std::span<const double> a = csr.weights();
  const std::span<const double> p = sc.p_success_csr();
  const std::span<double> expected = ws.doubles(n);
  for (std::uint32_t v = 0; v < n; ++v) expected[v] = a[v] * (2.0 - p[v]);
  const std::span<double> finish = ws.doubles(n);
  return graph::critical_path_length(csr, expected, finish);
}

/// Flat level partition into leased scratch: the level of every position
/// (longest edge count from an entry) in one forward sweep, then a
/// counting sort that lists each level's positions in ascending Dag id
/// order — the order the level folds are pinned with. Shared by the
/// serial kernel and its fan-out variant.
struct LevelPartition {
  std::size_t depth = 0;                 ///< max_level + 1
  std::span<std::uint32_t> offsets;      ///< size depth + 1
  std::span<std::uint32_t> by_level;     ///< positions, level-major
};

EXPMK_NOALLOC LevelPartition build_level_partition(const graph::CsrDag& csr,
                                                   exp::Workspace& ws) {
  const std::size_t n = csr.task_count();
  const std::span<std::uint32_t> level = ws.u32(n);
  LevelPartition out;
  for (std::uint32_t v = 0; v < n; ++v) {
    std::uint32_t lv = 0;
    for (const std::uint32_t u : csr.preds(v)) {
      lv = std::max(lv, level[u] + 1);
    }
    level[v] = lv;
    out.depth = std::max<std::size_t>(out.depth, lv + 1);
  }
  out.offsets = ws.u32(out.depth + 1);
  std::fill(out.offsets.begin(), out.offsets.end(), 0u);
  for (std::uint32_t v = 0; v < n; ++v) ++out.offsets[level[v] + 1];
  for (std::size_t l = 0; l < out.depth; ++l) {
    out.offsets[l + 1] += out.offsets[l];
  }
  out.by_level = ws.u32(n);
  {
    const std::span<std::uint32_t> cursor = ws.u32(out.depth);
    std::copy(out.offsets.begin(),
              out.offsets.begin() + static_cast<long>(out.depth),
              cursor.begin());
    for (const std::uint32_t v : csr.position()) {
      out.by_level[cursor[level[v]]++] = v;
    }
  }
  return out;
}

/// E[ max_{i in tasks} X_i ] of one level via dist_kernels::max_of on
/// leased Atom arenas (pinned bitwise against the value-level fold in
/// tests/reference_estimators by tests/test_workspace.cpp). The result
/// does not depend on the arenas' capacity, only that it suffices
/// (2 * level.size() + 2 atoms each), so per-level and widest-level
/// arenas give the same bits — which is what lets the fan-out variant
/// lease per level.
EXPMK_NOALLOC double level_fold_mean(std::span<const double> weights,
                                     std::span<const double> p,
                                     std::span<const std::uint32_t> level,
                                     std::span<prob::Atom> cur,
                                     std::span<prob::Atom> next) {
  namespace dk = prob::dist_kernels;
  // point(0.0), the fold's identity.
  std::size_t cur_n = dk::point(0.0, cur);
  for (const std::uint32_t v : level) {
    const double a = weights[v];
    if (a <= 0.0) continue;
    prob::Atom y[2];
    const std::size_t yn = dk::two_state(a, p[v], y);
    cur_n = dk::max_of(cur.subspan(0, cur_n), {y, yn}, next);
    std::swap(cur, next);
  }
  return dk::mean(cur.subspan(0, cur_n));
}

}  // namespace

EXPMK_NOALLOC MakespanBounds makespan_bounds(const scenario::Scenario& sc,
                               exp::Workspace& ws) {
  const exp::Workspace::Frame frame(ws);
  const std::span<const double> w = sc.weights_csr();
  const std::span<const double> p = sc.p_success_csr();

  MakespanBounds out;
  // d(G) is cached at compile.
  out.failure_free = sc.critical_path();
  out.jensen_lower = jensen_bound(sc, ws);

  const LevelPartition lp = build_level_partition(sc.csr(), ws);

  // E[ sum_l max_{i in L_l} X_i ]. Atom capacity: the support of a max of
  // k two-state laws is a subset of {a_i, 2 a_i} union {0}, i.e. at most
  // 2k + 1 values, so the widest level sizes both arenas.
  std::size_t width = 0;
  for (std::size_t l = 0; l < lp.depth; ++l) {
    width = std::max<std::size_t>(width, lp.offsets[l + 1] - lp.offsets[l]);
  }
  const std::size_t cap = 2 * width + 2;
  const std::span<prob::Atom> cur = ws.atoms(cap);
  const std::span<prob::Atom> next = ws.atoms(cap);
  double upper = 0.0;
  for (std::size_t l = 0; l < lp.depth; ++l) {
    upper += level_fold_mean(
        w, p,
        lp.by_level.subspan(lp.offsets[l], lp.offsets[l + 1] - lp.offsets[l]),
        cur, next);
  }
  out.level_upper = upper;
  return out;
}

MakespanBounds makespan_bounds(const scenario::Scenario& sc,
                               exp::Workspace& ws, std::size_t workers) {
  if (workers <= 1) return makespan_bounds(sc, ws);
  const exp::Workspace::Frame frame(ws);
  const std::span<const double> w = sc.weights_csr();
  const std::span<const double> p = sc.p_success_csr();

  MakespanBounds out;
  out.failure_free = sc.critical_path();
  out.jensen_lower = jensen_bound(sc, ws);

  const LevelPartition lp = build_level_partition(sc.csr(), ws);

  // Levels are mutually independent, so the folds — the dominant cost —
  // fan out: levels are dealt round-robin to a few chunks per worker (one
  // claim per chunk, not per level; strided so wide and narrow levels
  // spread evenly), and each fold leases right-sized arenas from the
  // worker's thread-local pooled workspace. The means land in per-level
  // slots and fold serially in level order: the serial kernel's exact
  // addition sequence.
  const std::span<double> level_mean = ws.doubles(lp.depth);
  const std::size_t chunks = std::min(lp.depth, kChunksPerWorker * workers);
  util::for_each_chunk(workers, chunks, [&](std::size_t c) {
    exp::Workspace& tws = exp::Workspace::local();
    for (std::size_t l = c; l < lp.depth; l += chunks) {
      const exp::Workspace::Frame tframe(tws);
      const std::size_t len = lp.offsets[l + 1] - lp.offsets[l];
      const std::size_t cap = 2 * len + 2;
      level_mean[l] = level_fold_mean(
          w, p, lp.by_level.subspan(lp.offsets[l], len), tws.atoms(cap),
          tws.atoms(cap));
    }
  });
  double upper = 0.0;
  for (std::size_t l = 0; l < lp.depth; ++l) upper += level_mean[l];
  out.level_upper = upper;
  return out;
}

}  // namespace expmk::core
