#include "sp_reference.hpp"

#include <algorithm>
#include <map>
#include <optional>
#include <stdexcept>
#include <utility>

#include "dist_ops.hpp"
#include "prob/dist_kernels.hpp"

namespace expmk::sp_ref {

ArcNetwork ArcNetwork::from_dag(
    const graph::Dag& g, std::vector<prob::DiscreteDistribution> task_dist) {
  if (task_dist.size() != g.task_count()) {
    throw std::invalid_argument(
        "ArcNetwork::from_dag: one distribution per task required");
  }
  ArcNetwork net;
  const std::size_t n = g.task_count();
  net.out_.resize(2 * n + 2);
  net.in_.resize(2 * n + 2);
  net.source_ = static_cast<NodeId>(2 * n);
  net.sink_ = static_cast<NodeId>(2 * n + 1);
  const auto u = [](graph::TaskId i) { return static_cast<NodeId>(2 * i); };
  const auto v = [](graph::TaskId i) {
    return static_cast<NodeId>(2 * i + 1);
  };
  for (graph::TaskId i = 0; i < n; ++i) {
    net.add_arc(u(i), v(i), std::move(task_dist[i]));
  }
  const prob::DiscreteDistribution zero;  // point mass at 0
  for (graph::TaskId i = 0; i < n; ++i) {
    for (const graph::TaskId j : g.successors(i)) {
      net.add_arc(v(i), u(j), zero);
    }
    if (g.in_degree(i) == 0) net.add_arc(net.source_, u(i), zero);
    if (g.out_degree(i) == 0) net.add_arc(v(i), net.sink_, zero);
  }
  return net;
}

const std::vector<ArcId>& ArcNetwork::out_arcs(NodeId n) const {
  std::erase_if(out_.at(n), [this](ArcId id) { return !arcs_[id].alive; });
  return out_[n];
}

const std::vector<ArcId>& ArcNetwork::in_arcs(NodeId n) const {
  std::erase_if(in_.at(n), [this](ArcId id) { return !arcs_[id].alive; });
  return in_[n];
}

NodeId ArcNetwork::add_node() {
  out_.emplace_back();
  in_.emplace_back();
  return static_cast<NodeId>(out_.size() - 1);
}

ArcId ArcNetwork::add_arc(NodeId from, NodeId to,
                          prob::DiscreteDistribution dist) {
  const ArcId id = static_cast<ArcId>(arcs_.size());
  arcs_.push_back(Arc{from, to, std::move(dist), true});
  out_.at(from).push_back(id);
  in_.at(to).push_back(id);
  ++alive_arcs_;
  return id;
}

void ArcNetwork::remove_arc(ArcId id) {
  Arc& a = arcs_.at(id);
  if (!a.alive) return;
  a.alive = false;
  --alive_arcs_;
}

void ArcNetwork::retarget_arc(ArcId id, NodeId new_to) {
  Arc& a = arcs_.at(id);
  std::erase(in_[a.to], id);
  a.to = new_to;
  in_.at(new_to).push_back(id);
}

namespace {

namespace dk = prob::dist_kernels;

/// Parallel-merges duplicate out-arcs of `u` (groups by ascending head,
/// insertion order within a head). Returns merges done.
std::size_t parallel_merge_at(ArcNetwork& net, NodeId u, std::size_t max_atoms,
                              std::vector<NodeId>& touched,
                              dk::TruncationCert& cert) {
  std::size_t merges = 0;
  std::map<NodeId, std::vector<ArcId>> groups;
  for (const ArcId id : net.out_arcs(u)) groups[net.arc(id).to].push_back(id);
  for (auto& [head, ids] : groups) {
    if (ids.size() < 2) continue;
    prob::DiscreteDistribution acc = net.arc(ids[0]).dist;
    for (std::size_t i = 1; i < ids.size(); ++i) {
      acc = dist_ops::max_of(acc, net.arc(ids[i]).dist, max_atoms, &cert);
      net.remove_arc(ids[i]);
      ++merges;
    }
    net.arc(ids[0]).dist = std::move(acc);
    touched.push_back(head);
    touched.push_back(u);
  }
  return merges;
}

/// Series-merges at internal node `v` when it has degree (1,1).
bool series_merge_at(ArcNetwork& net, NodeId v, std::size_t max_atoms,
                     std::vector<NodeId>& touched, dk::TruncationCert& cert) {
  if (v == net.source() || v == net.sink()) return false;
  if (net.in_degree(v) != 1 || net.out_degree(v) != 1) return false;
  const ArcId in_id = net.in_arcs(v)[0];
  const ArcId out_id = net.out_arcs(v)[0];
  const NodeId u = net.arc(in_id).from;
  const NodeId w = net.arc(out_id).to;
  auto merged = dist_ops::convolve(net.arc(in_id).dist, net.arc(out_id).dist,
                                   max_atoms, &cert);
  net.remove_arc(in_id);
  net.remove_arc(out_id);
  net.add_arc(u, w, std::move(merged));
  touched.push_back(u);
  touched.push_back(w);
  return true;
}

/// One reduction pass: drains the LIFO worklist; the pass's truncation
/// certificate folds into `stats` once at the end.
void reduce_from(ArcNetwork& net, std::vector<NodeId> work,
                 std::size_t max_atoms, sp::ReduceStats& stats) {
  std::vector<NodeId> touched;
  dk::TruncationCert cert;
  while (!work.empty()) {
    const NodeId v = work.back();
    work.pop_back();
    touched.clear();
    const std::size_t p = parallel_merge_at(net, v, max_atoms, touched, cert);
    stats.parallel += p;
    if (series_merge_at(net, v, max_atoms, touched, cert)) ++stats.series;
    work.insert(work.end(), touched.begin(), touched.end());
    if (p > 0) work.push_back(v);
  }
  stats.truncation.accumulate(cert);
}

void reduce_all(ArcNetwork& net, std::size_t max_atoms,
                sp::ReduceStats& stats) {
  std::vector<NodeId> all(net.node_count());
  for (NodeId v = 0; v < all.size(); ++v) all[v] = v;
  reduce_from(net, std::move(all), max_atoms, stats);
}

/// The first join (in >= 2, out == 1) in Kahn order over alive arcs, else
/// the first fork (in == 1, out >= 2); `is_join` reports which.
NodeId pick_duplication(ArcNetwork& net, bool& is_join) {
  std::vector<std::size_t> indeg(net.node_count(), 0);
  std::vector<NodeId> order;
  for (NodeId v = 0; v < net.node_count(); ++v) indeg[v] = net.in_degree(v);
  for (NodeId v = 0; v < net.node_count(); ++v) {
    if (indeg[v] == 0) order.push_back(v);
  }
  for (std::size_t head = 0; head < order.size(); ++head) {
    for (const ArcId id : net.out_arcs(order[head])) {
      if (--indeg[net.arc(id).to] == 0) order.push_back(net.arc(id).to);
    }
  }
  std::optional<NodeId> fork;
  for (const NodeId v : order) {
    if (v == net.source() || v == net.sink()) continue;
    const std::size_t in = net.in_degree(v);
    const std::size_t out = net.out_degree(v);
    if (in >= 2 && out == 1) {
      is_join = true;
      return v;
    }
    if (!fork && in == 1 && out >= 2) fork = v;
  }
  if (!fork) throw std::logic_error("dodin: no duplication site");
  is_join = false;
  return *fork;
}

bool single_arc(ArcNetwork& net) {
  return net.arc_count() == 1 && net.out_degree(net.source()) == 1 &&
         net.arc(net.out_arcs(net.source())[0]).to == net.sink();
}

}  // namespace

SpResult evaluate_sp(ArcNetwork net, std::size_t max_atoms) {
  SpResult out;
  reduce_all(net, max_atoms, out.stats);
  out.is_series_parallel = single_arc(net) && net.in_degree(net.sink()) == 1;
  out.stats.reduced_to_single_arc = out.is_series_parallel;
  if (out.is_series_parallel) {
    out.makespan = net.arc(net.out_arcs(net.source())[0]).dist;
  }
  return out;
}

DodinResult dodin(ArcNetwork net, const sp::DodinOptions& options) {
  DodinResult result;
  reduce_all(net, options.max_atoms, result.stats);
  while (!single_arc(net)) {
    bool is_join = false;
    const NodeId v = pick_duplication(net, is_join);
    const NodeId clone = net.add_node();
    if (is_join) {
      // Join: move one in-arc (u,v) to (u,clone); copy the out-arc.
      net.retarget_arc(net.in_arcs(v).front(), clone);
      const ArcId out = net.out_arcs(v).front();
      net.add_arc(clone, net.arc(out).to, net.arc(out).dist);
    } else {
      // Fork: move one out-arc (v,w) to (clone,w) by remove + add; copy
      // the in-arc (u,v) as (u,clone).
      const ArcId moved = net.out_arcs(v).front();
      const ArcId in = net.in_arcs(v).front();
      const NodeId u = net.arc(in).from;
      const NodeId w = net.arc(moved).to;
      auto dist = net.arc(moved).dist;
      net.remove_arc(moved);
      net.add_arc(clone, w, std::move(dist));
      net.add_arc(u, clone, net.arc(in).dist);
    }
    std::vector<NodeId> seeds = {v, clone};
    for (const ArcId id : net.in_arcs(clone)) seeds.push_back(net.arc(id).from);
    for (const ArcId id : net.out_arcs(clone)) seeds.push_back(net.arc(id).to);
    reduce_from(net, std::move(seeds), options.max_atoms, result.stats);
    if (++result.duplications > options.max_duplications) {
      throw std::runtime_error("dodin: duplication budget exhausted");
    }
  }
  result.makespan = net.arc(net.out_arcs(net.source())[0]).dist;
  return result;
}

}  // namespace expmk::sp_ref
