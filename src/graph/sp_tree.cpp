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

}  // namespace

SpDecomposition sp_collapse(const Dag& g) {
  const std::size_t n = g.task_count();
  SpDecomposition d;
  d.modules.reserve(2 * n);
  d.modules.resize(n);
  std::vector<double> mod_weight(n);
  for (TaskId t = 0; t < n; ++t) {
    d.modules[t] = {SpDecomposition::Kind::Leaf, t, 0, 0};
    mod_weight[t] = g.weight(t);
  }

  // Working graph: node i starts as task i; merges keep the surviving
  // node's index, so node indices stay ascending-deterministic.
  std::vector<std::vector<std::uint32_t>> succ(n), pred(n);
  for (TaskId t = 0; t < n; ++t) {
    succ[t].assign(g.successors(t).begin(), g.successors(t).end());
    pred[t].assign(g.predecessors(t).begin(), g.predecessors(t).end());
  }
  std::vector<std::uint32_t> module(n);
  for (std::uint32_t i = 0; i < n; ++i) module[i] = i;
  std::vector<char> alive(n, 1);

  const auto make_composite = [&](SpDecomposition::Kind kind,
                                  const std::uint32_t* child_nodes,
                                  std::uint32_t count) -> std::uint32_t {
    const auto id = static_cast<std::uint32_t>(d.modules.size());
    SpDecomposition::Module m;
    m.kind = kind;
    m.first_child = static_cast<std::uint32_t>(d.children.size());
    m.child_count = count;
    double w = 0.0;
    for (std::uint32_t c = 0; c < count; ++c) {
      d.children.push_back(module[child_nodes[c]]);
      w += mod_weight[module[child_nodes[c]]];
    }
    d.modules.push_back(m);
    mod_weight.push_back(w);
    return id;
  };

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
        const std::uint32_t pair[2] = {u, v};
        module[u] = make_composite(SpDecomposition::Kind::Series, pair, 2);
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
    std::vector<std::uint32_t> twins;
    for (auto& [h, nodes] : groups) {
      if (nodes.size() < 2) continue;
      std::vector<char> taken(nodes.size(), 0);
      for (std::size_t i = 0; i < nodes.size(); ++i) {
        if (taken[i]) continue;
        const std::uint32_t u = nodes[i];
        twins.clear();
        twins.push_back(u);
        for (std::size_t j = i + 1; j < nodes.size(); ++j) {
          if (taken[j]) continue;
          const std::uint32_t v = nodes[j];
          if (sorted_pred[v] == sorted_pred[u] &&
              sorted_succ[v] == sorted_succ[u]) {
            twins.push_back(v);
            taken[j] = 1;
          }
        }
        if (twins.size() < 2) continue;
        module[u] = make_composite(SpDecomposition::Kind::Parallel,
                                   twins.data(),
                                   static_cast<std::uint32_t>(twins.size()));
        for (std::size_t k = 1; k < twins.size(); ++k) {
          const std::uint32_t v = twins[k];
          for (const std::uint32_t p : pred[v]) erase_value(succ[p], v);
          for (const std::uint32_t s : succ[v]) erase_value(pred[s], v);
          alive[v] = 0;
          succ[v].clear();
          pred[v].clear();
        }
        changed = true;
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
    qid[u] = d.quotient.add_task(mod_weight[module[u]]);
    d.quotient_module.push_back(module[u]);
  }
  for (std::uint32_t u = 0; u < n; ++u) {
    if (!alive[u]) continue;
    for (const std::uint32_t v : succ[u]) {
      d.quotient.add_edge(qid[u], qid[v]);
    }
  }
  d.collapsed_tasks = n - d.quotient.task_count();
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
