#include "graph/sp_tree.hpp"

#include <algorithm>
#include <map>
#include <utility>

namespace expmk::graph {

namespace {

/// FNV-1a over a sequence of u32 — the grouping key for the parallel
/// pass. Collisions are survivable: groups are re-verified by comparing
/// the actual sorted adjacency before merging.
std::uint64_t hash_adjacency(const std::vector<std::uint32_t>& preds,
                             const std::vector<std::uint32_t>& succs) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      h ^= (v >> (8 * i)) & 0xffU;
      h *= 0x100000001b3ULL;
    }
  };
  mix(static_cast<std::uint32_t>(preds.size()));
  for (const std::uint32_t p : preds) mix(p);
  mix(0xffffffffU);  // separator: ({a},{}) must differ from ({},{a})
  for (const std::uint32_t s : succs) mix(s);
  return h;
}

void erase_value(std::vector<std::uint32_t>& v, std::uint32_t x) {
  v.erase(std::remove(v.begin(), v.end(), x), v.end());
}

using Kind = SpDecomposition::Kind;

/// The module lists the passes build. Ids 0..n-1 are the leaves (task
/// i); every later id is one composite: an ordered child list of one
/// kind, threaded through `next` (an id sits in at most one list), so
/// appending a child or splicing a whole same-kind list is O(1).
struct ChildLists {
  std::vector<Kind> kind;
  std::vector<std::uint32_t> head, tail, next;

  explicit ChildLists(std::size_t n)
      : kind(n, Kind::Leaf), head(n, kNoTask), tail(n, kNoTask),
        next(n, kNoTask) {}

  /// `a` followed by `b` under `k`: `a` becomes (or stays) a `k` list,
  /// and `b` joins it as one child, or splices its children in when it
  /// is a `k` list itself — so same-kind nesting never forms. Returns
  /// the list now standing for both.
  std::uint32_t join(Kind k, std::uint32_t a, std::uint32_t b) {
    if (kind[a] != k) {
      const auto id = static_cast<std::uint32_t>(kind.size());
      kind.push_back(k);
      head.push_back(a);
      tail.push_back(a);
      next.push_back(kNoTask);
      a = id;
    }
    next[tail[a]] = kind[b] == k ? head[b] : b;
    tail[a] = kind[b] == k ? tail[b] : b;
    return a;
  }
};

/// Emits the binary modules of a balanced tree over the `count` module
/// ids at `ids` (split at mid = count / 2), children before parents, and
/// returns the root's id.
std::uint32_t emit_balanced(SpDecomposition& d, Kind kind,
                            const std::uint32_t* ids, std::size_t count) {
  if (count == 1) return ids[0];
  const std::size_t mid = count / 2;
  const std::uint32_t left = emit_balanced(d, kind, ids, mid);
  const std::uint32_t right = emit_balanced(d, kind, ids + mid, count - mid);
  const auto id = static_cast<std::uint32_t>(d.modules.size());
  d.modules.push_back(
      {kind, kNoTask, static_cast<std::uint32_t>(d.children.size()), 2});
  d.children.push_back(left);
  d.children.push_back(right);
  return id;
}

}  // namespace

SpDecomposition sp_collapse(const Dag& g) {
  const std::size_t n = g.task_count();
  SpDecomposition d;

  // Working graph: node i starts as task i; merges keep the surviving
  // node's index, so node indices stay ascending-deterministic. A node
  // stands for the list `list[u]` and weighs the sum of its tasks'
  // weights, added in merge order.
  std::vector<std::vector<std::uint32_t>> succ(n), pred(n);
  for (TaskId t = 0; t < n; ++t) {
    succ[t].assign(g.successors(t).begin(), g.successors(t).end());
    pred[t].assign(g.predecessors(t).begin(), g.predecessors(t).end());
  }
  ChildLists lists(n);
  std::vector<std::uint32_t> list(n);
  std::vector<double> weight(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    list[i] = i;
    weight[i] = g.weight(i);
  }
  std::vector<char> alive(n, 1);

  // Series pass: absorb maximal chains in one sweep. After u absorbs v,
  // u inherits v's successors, so the while loop keeps absorbing and a
  // whole chain contracts in a single pass.
  const auto series_pass = [&]() -> bool {
    bool changed = false;
    for (std::uint32_t u = 0; u < n; ++u) {
      if (!alive[u]) continue;
      while (succ[u].size() == 1) {
        const std::uint32_t v = succ[u][0];
        if (pred[v].size() != 1) break;
        list[u] = lists.join(Kind::Series, list[u], list[v]);
        weight[u] += weight[v];
        succ[u] = std::move(succ[v]);
        for (const std::uint32_t w : succ[u]) {
          std::replace(pred[w].begin(), pred[w].end(), v, u);
        }
        alive[v] = 0;
        succ[v].clear();
        pred[v].clear();
        changed = true;
      }
    }
    return changed;
  };

  // Parallel pass: group alive nodes by (sorted preds, sorted succs) and
  // fuse each group into its lowest-index member. Grouping goes through a
  // hash only to find candidates; the sorted adjacency itself is compared
  // before fusing (hash collisions must not merge distinct signatures).
  std::vector<std::vector<std::uint32_t>> sorted_pred(n), sorted_succ(n);
  const auto parallel_pass = [&]() -> bool {
    bool changed = false;
    std::map<std::uint64_t, std::vector<std::uint32_t>> groups;
    for (std::uint32_t u = 0; u < n; ++u) {
      if (!alive[u]) continue;
      sorted_pred[u] = pred[u];
      sorted_succ[u] = succ[u];
      std::sort(sorted_pred[u].begin(), sorted_pred[u].end());
      std::sort(sorted_succ[u].begin(), sorted_succ[u].end());
      groups[hash_adjacency(sorted_pred[u], sorted_succ[u])].push_back(u);
    }
    for (auto& [h, nodes] : groups) {
      if (nodes.size() < 2) continue;
      std::vector<char> taken(nodes.size(), 0);
      for (std::size_t i = 0; i < nodes.size(); ++i) {
        if (taken[i]) continue;
        const std::uint32_t u = nodes[i];
        for (std::size_t j = i + 1; j < nodes.size(); ++j) {
          if (taken[j]) continue;
          const std::uint32_t v = nodes[j];
          if (sorted_pred[v] != sorted_pred[u] ||
              sorted_succ[v] != sorted_succ[u]) {
            continue;
          }
          taken[j] = 1;
          list[u] = lists.join(Kind::Parallel, list[u], list[v]);
          weight[u] += weight[v];
          for (const std::uint32_t p : pred[v]) erase_value(succ[p], v);
          for (const std::uint32_t s : succ[v]) erase_value(pred[s], v);
          alive[v] = 0;
          succ[v].clear();
          pred[v].clear();
          changed = true;
        }
      }
    }
    return changed;
  };

  bool changed = n > 0;
  while (changed) {
    changed = series_pass();
    changed = parallel_pass() || changed;
  }

  // Quotient: surviving nodes in ascending index order.
  std::vector<std::uint32_t> qid(n, kNoTask);
  d.quotient.reserve_tasks(n);  // upper bound; cheap relative to the pass
  for (std::uint32_t u = 0; u < n; ++u) {
    if (!alive[u]) continue;
    qid[u] = d.quotient.add_task(weight[u]);
  }
  for (std::uint32_t u = 0; u < n; ++u) {
    if (!alive[u]) continue;
    for (const std::uint32_t v : succ[u]) {
      d.quotient.add_edge(qid[u], qid[v]);
    }
  }
  const std::size_t roots = d.quotient.task_count();
  d.collapsed_tasks = n - roots;
  // The working graph's last use: free it before emitting.
  succ = {};
  pred = {};
  sorted_pred = {};
  sorted_succ = {};

  // Modules: leaves 0..n-1, then each list as a balanced binary tree,
  // lists below it first (explicit-stack post-order: alternating
  // series/parallel nesting can be as deep as the graph is large). A
  // k-child list yields k - 1 modules, so the sizes are known up front.
  d.modules.reserve(n + d.collapsed_tasks);
  d.children.reserve(2 * d.collapsed_tasks);
  d.modules.resize(n);
  for (TaskId t = 0; t < n; ++t) d.modules[t] = {Kind::Leaf, t, 0, 0};
  std::vector<std::uint32_t> module_of(lists.kind.size());
  std::vector<std::uint64_t> stack;  // (list << 1) | children emitted
  std::vector<std::uint32_t> kids;
  d.quotient_module.reserve(roots);
  for (std::uint32_t u = 0; u < n; ++u) {
    if (!alive[u]) continue;
    stack.push_back(std::uint64_t{list[u]} << 1);
    while (!stack.empty()) {
      const auto l = static_cast<std::uint32_t>(stack.back() >> 1);
      if (lists.kind[l] == Kind::Leaf) {
        module_of[l] = l;
        stack.pop_back();
      } else if ((stack.back() & 1) == 0) {
        stack.back() |= 1;
        for (std::uint32_t c = lists.head[l]; c != kNoTask;
             c = lists.next[c]) {
          stack.push_back(std::uint64_t{c} << 1);
        }
      } else {
        kids.clear();
        for (std::uint32_t c = lists.head[l]; c != kNoTask;
             c = lists.next[c]) {
          kids.push_back(module_of[c]);
        }
        module_of[l] =
            emit_balanced(d, lists.kind[l], kids.data(), kids.size());
        stack.pop_back();
      }
    }
    d.quotient_module.push_back(module_of[list[u]]);
  }
  d.quotient_csr = CsrDag(d.quotient);
  return d;
}

std::vector<TaskId> module_tasks(const SpDecomposition& d,
                                 std::uint32_t module) {
  std::vector<TaskId> out;
  std::vector<std::uint32_t> stack{module};
  while (!stack.empty()) {
    const std::uint32_t m = stack.back();
    stack.pop_back();
    const SpDecomposition::Module& mod = d.modules.at(m);
    if (mod.kind == SpDecomposition::Kind::Leaf) {
      out.push_back(mod.task);
      continue;
    }
    for (std::uint32_t c = 0; c < mod.child_count; ++c) {
      stack.push_back(d.children[mod.first_child + c]);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace expmk::graph
