#include "core/bounds.hpp"

#include <algorithm>
#include <span>

#include "graph/longest_path.hpp"
#include "prob/dist_kernels.hpp"
#include "util/thread_pool.hpp"

namespace expmk::core {

namespace {

/// Pool tasks per worker in the fan-out variant: enough for load balance,
/// few enough that per-task submission stays negligible.
constexpr std::size_t kChunksPerWorker = 4;

/// Jensen lower bound over the compiled scenario, into leased scratch —
/// shared verbatim by the serial kernel and its fan-out variant.
EXPMK_NOALLOC double jensen_bound(const scenario::Scenario& sc,
                                  exp::Workspace& ws) {
  const graph::Dag& g = sc.dag();
  const std::size_t n = g.task_count();
  const std::span<const graph::TaskId> topo = sc.topo();
  const std::span<const double> p = sc.p_success();
  // A TwoState scenario caches exactly a_i (2 - p_i); under Geometric
  // retry the cache holds the geometric ones, so compute the 2-state
  // values into a leased span.
  std::span<const double> expected;
  if (sc.retry() == RetryModel::TwoState) {
    expected = sc.expected_durations();
  } else {
    const std::span<double> expected_scratch = ws.doubles(n);
    for (graph::TaskId i = 0; i < n; ++i) {
      expected_scratch[i] = g.weight(i) * (2.0 - p[i]);
    }
    expected = expected_scratch;
  }
  const std::span<double> finish = ws.doubles(n);
  return graph::critical_path_length(g, expected, topo, finish);
}

/// Flat level partition into leased scratch: level index per task (pure
/// dataflow, so any topological order yields graph::level_partition's
/// values), then a counting sort that reproduces its ascending-id order
/// per level. Shared by the serial kernel and its fan-out variant.
struct LevelPartition {
  std::size_t depth = 0;                 ///< max_level + 1
  std::span<std::uint32_t> offsets;      ///< size depth + 1
  std::span<std::uint32_t> by_level;     ///< tasks, level-major, id-ascending
};

EXPMK_NOALLOC LevelPartition build_level_partition(
    const graph::Dag& g, std::span<const graph::TaskId> topo,
    exp::Workspace& ws) {
  const std::size_t n = g.task_count();
  const std::span<std::uint32_t> level = ws.u32(n);
  LevelPartition out;
  for (const graph::TaskId v : topo) {
    std::uint32_t lv = 0;
    for (const graph::TaskId u : g.predecessors(v)) {
      lv = std::max(lv, level[u] + 1);
    }
    level[v] = lv;
    out.depth = std::max<std::size_t>(out.depth, lv + 1);
  }
  out.offsets = ws.u32(out.depth + 1);
  std::fill(out.offsets.begin(), out.offsets.end(), 0u);
  for (graph::TaskId v = 0; v < n; ++v) ++out.offsets[level[v] + 1];
  for (std::size_t l = 0; l < out.depth; ++l) {
    out.offsets[l + 1] += out.offsets[l];
  }
  out.by_level = ws.u32(n);
  {
    const std::span<std::uint32_t> cursor = ws.u32(out.depth);
    std::copy(out.offsets.begin(),
              out.offsets.begin() + static_cast<long>(out.depth),
              cursor.begin());
    for (graph::TaskId v = 0; v < n; ++v) {
      out.by_level[cursor[level[v]]++] = v;
    }
  }
  return out;
}

/// E[ max_{i in tasks} X_i ] of one level via dist_kernels::max_of on
/// leased Atom arenas (pinned bitwise against the value-level fold in
/// tests/reference_estimators by tests/test_workspace.cpp). The result
/// does not depend on the arenas' capacity, only that it suffices
/// (2 * tasks.size() + 2), so per-level and whole-graph arenas give the
/// same bits — which is what lets the fan-out variant lease per level.
EXPMK_NOALLOC double level_fold_mean(const graph::Dag& g,
                                     std::span<const double> p,
                                     std::span<const std::uint32_t> tasks,
                                     std::span<prob::Atom> cur,
                                     std::span<prob::Atom> next,
                                     std::span<double> support) {
  namespace dk = prob::dist_kernels;
  // point(0.0), the fold's identity.
  std::size_t cur_n = dk::point(0.0, cur);
  for (const std::uint32_t i : tasks) {
    const double a = g.weight(i);
    if (a <= 0.0) continue;
    prob::Atom y[2];
    const std::size_t yn = dk::two_state(a, p[i], y);
    cur_n = dk::max_of(cur.subspan(0, cur_n), {y, yn}, next, support);
    std::swap(cur, next);
  }
  return dk::mean(cur.subspan(0, cur_n));
}

}  // namespace

EXPMK_NOALLOC MakespanBounds makespan_bounds(const scenario::Scenario& sc,
                               exp::Workspace& ws) {
  const exp::Workspace::Frame frame(ws);
  const graph::Dag& g = sc.dag();
  const std::size_t n = g.task_count();
  const std::span<const double> p = sc.p_success();

  MakespanBounds out;
  // d(G) is cached at compile.
  out.failure_free = sc.critical_path();
  out.jensen_lower = jensen_bound(sc, ws);

  const LevelPartition lp = build_level_partition(g, sc.topo(), ws);

  // E[ sum_l max_{i in L_l} X_i ]. Atom capacity: the support of a max of
  // k two-state laws is a subset of {a_i, 2 a_i} union {0}, i.e. at most
  // 2k + 1 values.
  const std::size_t cap = 2 * n + 2;
  const std::span<prob::Atom> cur = ws.atoms(cap);
  const std::span<prob::Atom> next = ws.atoms(cap);
  const std::span<double> support = ws.doubles(cap);
  double upper = 0.0;
  for (std::size_t l = 0; l < lp.depth; ++l) {
    upper += level_fold_mean(
        g, p,
        lp.by_level.subspan(lp.offsets[l], lp.offsets[l + 1] - lp.offsets[l]),
        cur, next, support);
  }
  out.level_upper = upper;
  return out;
}

MakespanBounds makespan_bounds(const scenario::Scenario& sc,
                               exp::Workspace& ws, std::size_t workers) {
  if (workers <= 1) return makespan_bounds(sc, ws);
  const exp::Workspace::Frame frame(ws);
  const graph::Dag& g = sc.dag();
  const std::span<const double> p = sc.p_success();

  MakespanBounds out;
  out.failure_free = sc.critical_path();
  out.jensen_lower = jensen_bound(sc, ws);

  const LevelPartition lp = build_level_partition(g, sc.topo(), ws);

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
          g, p, lp.by_level.subspan(lp.offsets[l], len), tws.atoms(cap),
          tws.atoms(cap), tws.doubles(cap));
    }
  });
  double upper = 0.0;
  for (std::size_t l = 0; l < lp.depth; ++l) upper += level_mean[l];
  out.level_upper = upper;
  return out;
}

}  // namespace expmk::core
