// spgraph/flat_network.cpp
//
// The series-parallel / Dodin engine: the whole AoA network — arc table,
// adjacency lists, every intermediate duration distribution — lives in
// exp::Workspace-leased arenas, and all distribution arithmetic runs
// through the span kernels of prob/dist_kernels.hpp. At steady state on a
// warm workspace an evaluation performs ZERO heap allocations (pinned by
// tests/test_workspace.cpp's counting operator new).
//
// One network builder serves every caller: the Scenario entry points
// (the registry's `sp` / `dodin`) write each task's two-state law into
// the arena; the laws entry points (`sp.hier` / `dodin.hier` on the SP-tree
// quotient) copy each law of the caller's dist_kernels::LawTable verbatim.
//
// Fidelity contract. This engine replicates the object-model reference
// in tests/sp_reference.cpp OPERATION FOR OPERATION:
// arc insertion order (from_dag's layout), worklist discipline (LIFO,
// touched-node reseeding), parallel-merge grouping (ascending head node,
// per-head insertion order), series-merge arc selection (first live
// in/out arc), Kahn topological order and the join-before-fork
// duplication-site rule. The reference is the executable specification;
// tests/test_flat_spgraph.cpp pins means, reduction counts and truncation
// certificates bitwise against it.
//
// Graph bookkeeping scales with the LIVE network only:
//  * Adjacency lists are doubly linked and hold live arcs only. Removing
//    or retargeting an arc unlinks it in O(1) and keeps the relative
//    order of the others, which is exactly the reference's lazily
//    compacted vectors (append on add/retarget, dead ids erased): the
//    list heads are its first in/out arcs, and parallel_merge_at sees
//    its per-head order.
//  * Every link/unlink maintains per-node live in/out degrees and the
//    live node count (nodes with at least one live arc), so degree
//    queries are O(1).
//  * pick_duplication runs FIFO Kahn from the source over live arcs
//    only. That is the reference's all-node Kahn order restricted to
//    live nodes: a dead node has no arcs, so it neither releases nor
//    waits on anyone, and the source is the only live node of in-degree
//    0 (each reduction or duplication leaves every other live node at
//    least one in-arc). The same site is therefore picked every time,
//    and a duplication costs O(live nodes + live arcs) instead of
//    O(everything ever allocated).
//  * Debug builds recount degrees, live counts and list membership from
//    the arc table after every worklist pass (check_invariants).
//
// Memory discipline:
//  * The caller-facing entry points open ONE Workspace::Frame for the
//    whole evaluation; every long-lived structure (arc table, adjacency,
//    atom arena, worklists) leases inside that frame and is returned
//    wholesale when the evaluation ends. A repeated evaluation re-leases
//    the same (already grown) slots — the steady-state zero-alloc regime.
//  * The atom arena starts at twice the task laws' total atom count (plus
//    one atom per zero-duration arc) and is append-only with ping-pong
//    compaction: when the tail cannot fit an operation's result, live arc
//    slices are copied tightly into the spare buffer and the buffers swap
//    (growing the spare in place, which allocates only while cold).
//  * Sub-frames are opened ONLY around purely transient scratch (kernel
//    convolve / truncation scratch, the Kahn order, the Debug recount);
//    never across an arena or grow-vector mutation, whose leases must
//    live at the evaluation frame level.

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <limits>
#include <span>
#include <stdexcept>
#include <vector>

#include "exp/workspace.hpp"
#include "prob/dist_kernels.hpp"
#include "scenario/scenario.hpp"
#include "spgraph/dodin.hpp"
#include "spgraph/sp_reduce.hpp"

namespace expmk::sp {

namespace {

namespace dk = prob::dist_kernels;
using prob::Atom;
using std::size_t;
using u32 = std::uint32_t;
using u64 = std::uint64_t;

constexpr u32 kNil = std::numeric_limits<u32>::max();

template <class T>
std::span<T> ws_lease(exp::Workspace& ws, size_t n);
template <>
std::span<u32> ws_lease<u32>(exp::Workspace& ws, size_t n) {
  return ws.u32(n);
}
template <>
std::span<u64> ws_lease<u64>(exp::Workspace& ws, size_t n) {
  return ws.u64(n);
}

/// A push-back vector over one workspace lease that grows in place
/// (Workspace::grow): the slot sequence of an evaluation does not depend
/// on how far it grew, so a warm workspace serves every growth step from
/// existing capacity.
template <class T>
class GrowVec {
 public:
  GrowVec(exp::Workspace& ws, size_t initial)
      : ws_(ws), buf_(ws_lease<T>(ws, std::max<size_t>(initial, 8))) {}

  void push(T v) {
    if (n_ == buf_.size()) grow(n_ + 1);
    buf_[n_++] = v;
  }
  T& operator[](size_t i) { return buf_[i]; }
  const T& operator[](size_t i) const { return buf_[i]; }
  [[nodiscard]] size_t size() const { return n_; }
  [[nodiscard]] bool empty() const { return n_ == 0; }
  T back() const { return buf_[n_ - 1]; }
  void pop_back() { --n_; }
  void clear() { n_ = 0; }
  [[nodiscard]] T* begin() { return buf_.data(); }
  [[nodiscard]] T* end() { return buf_.data() + n_; }

 private:
  void grow(size_t need) {
    buf_ = ws_.grow(buf_, std::max(need, buf_.size() * 2));
  }

  exp::Workspace& ws_;
  std::span<T> buf_;
  size_t n_ = 0;
};

/// The engine. Construct inside an open Workspace::Frame; everything it
/// leases dies with that frame. `law_atoms` is the total atom count of
/// the task laws build() will copy in (it sizes the initial arena).
class FlatNetwork {
 public:
  FlatNetwork(exp::Workspace& ws, size_t tasks, size_t edges,
              size_t law_atoms)
      : ws_(ws),
        from_(ws, tasks * 3 + edges + 8),
        to_(ws, tasks * 3 + edges + 8),
        alive_(ws, tasks * 3 + edges + 8),
        doff_(ws, tasks * 3 + edges + 8),
        dlen_(ws, tasks * 3 + edges + 8),
        onext_(ws, tasks * 3 + edges + 8),
        oprev_(ws, tasks * 3 + edges + 8),
        inext_(ws, tasks * 3 + edges + 8),
        iprev_(ws, tasks * 3 + edges + 8),
        out_head_(ws, 2 * tasks + 2),
        out_tail_(ws, 2 * tasks + 2),
        in_head_(ws, 2 * tasks + 2),
        in_tail_(ws, 2 * tasks + 2),
        out_deg_(ws, 2 * tasks + 2),
        in_deg_(ws, 2 * tasks + 2),
        kahn_hits_(ws, 2 * tasks + 2),
        work_(ws, 4 * tasks + 8),
        touched_(ws, 16),
        keys_(ws, 16),
        gids_(ws, 16),
        arena_(ws.atoms(std::max<size_t>(2 * law_atoms + edges + 64, 256))),
        spare_(ws.atoms(1)) {}

  // ---------------------------------------------------------- building

  /// The reference from_dag layout: node u_i = 2i, v_i = 2i+1,
  /// source = 2n, sink = 2n+1; task arcs first, then per task its
  /// precedence / source / sink zero-duration arcs. `law_of(i, scratch)`
  /// returns task i's law — a caller-owned span, or one it wrote into
  /// the two-atom `scratch` — which is copied verbatim into the arena.
  template <class LawOf>
  void build(const graph::Dag& g, LawOf&& law_of) {
    const size_t n = g.task_count();
    for (size_t v = 0; v < 2 * n + 2; ++v) add_node();
    source_ = static_cast<u32>(2 * n);
    sink_ = static_cast<u32>(2 * n + 1);
    const auto u_of = [](graph::TaskId i) { return static_cast<u32>(2 * i); };
    const auto v_of = [](graph::TaskId i) {
      return static_cast<u32>(2 * i + 1);
    };
    for (graph::TaskId i = 0; i < n; ++i) {
      Atom scratch[2];
      const std::span<const Atom> law = law_of(i, std::span<Atom, 2>(scratch));
      ensure_arena(law.size());
      const size_t off = used_;
      std::copy(law.begin(), law.end(),
                arena_.begin() + static_cast<std::ptrdiff_t>(used_));
      used_ += law.size();
      add_arc(u_of(i), v_of(i), off, law.size());
    }
    for (graph::TaskId i = 0; i < n; ++i) {
      for (const graph::TaskId j : g.successors(i)) {
        add_zero_arc(v_of(i), u_of(j));
      }
      if (g.in_degree(i) == 0) add_zero_arc(source_, u_of(i));
      if (g.out_degree(i) == 0) add_zero_arc(v_of(i), sink_);
    }
  }

  // --------------------------------------------------------- reduction

  /// Mirrors the reference reduce_exhaustively: seed every node in id
  /// order, drain the LIFO worklist, then record the single-arc verdict.
  void reduce_exhaustively(size_t max_atoms) {
    work_.clear();
    for (u32 v = 0; v < node_count(); ++v) work_.push(v);
    reduce_worklist(max_atoms);
    stats_.reduced_to_single_arc =
        alive_arcs_ == 1 && out_degree(source_) == 1 &&
        in_degree(sink_) == 1 && to_[first_out(source_)] == sink_;
  }

  /// Mirrors the reference dodin's duplication loop (after a
  /// reduce_exhaustively first pass). Returns the duplication count;
  /// throws std::runtime_error past `max_duplications` and
  /// std::logic_error if no site exists.
  size_t run_dodin(size_t max_atoms, size_t max_duplications) {
    reduce_exhaustively(max_atoms);
    size_t duplications = 0;
    while (!dodin_single_arc()) {
      const Site site = pick_duplication();
      if (!site.found) {
        throw std::logic_error(
            "dodin: irreducible network with no duplication site (internal "
            "error)");
      }
      const u32 v = site.node;
      const u32 clone = add_node();
      if (site.is_join) {
        // Move one in-arc (u,v) to (u,clone); copy the single out-arc.
        const u32 moved = first_in(v);
        retarget(moved, clone);
        const u32 out = first_out(v);
        const size_t len = dlen_[out];
        ensure_arena(len);
        const size_t off = copy_slice(doff_[out], len);
        add_arc(clone, to_[out], off, len);
      } else {
        // Fork: move one out-arc (v,w) to (clone,w) by remove+add (the
        // reference network only moves heads); copy the single in-arc (u,v)
        // as (u,clone).
        const u32 moved_out = first_out(v);
        const u32 in = first_in(v);
        const u32 u = from_[in];
        const u32 w = to_[moved_out];
        const size_t len = dlen_[moved_out];
        ensure_arena(len);
        const size_t off = copy_slice(doff_[moved_out], len);
        remove_arc(moved_out);
        add_arc(clone, w, off, len);
        const size_t len2 = dlen_[in];
        ensure_arena(len2);
        const size_t off2 = copy_slice(doff_[in], len2);
        add_arc(u, clone, off2, len2);
      }
      // Local rewrite around the surgery; the clone series-merges here.
      work_.clear();
      work_.push(v);
      work_.push(clone);
      for (u32 id = in_head_[clone]; id != kNil; id = inext_[id]) {
        work_.push(from_[id]);
      }
      for (u32 id = out_head_[clone]; id != kNil; id = onext_[id]) {
        work_.push(to_[id]);
      }
      reduce_worklist(max_atoms);

      if (++duplications > max_duplications) {
        throw std::runtime_error(
            "dodin: duplication budget exhausted — network too entangled");
      }
    }
    return duplications;
  }

  // --------------------------------------------------------- extraction

  [[nodiscard]] ReduceStats stats() const {
    ReduceStats out = stats_;
    out.truncation = cert_;
    return out;
  }

  [[nodiscard]] std::span<const Atom> final_atoms() const {
    const u32 id = first_out(source_);
    return std::span<const Atom>(arena_).subspan(doff_[id], dlen_[id]);
  }

 private:
  struct Site {
    u32 node = 0;
    bool is_join = false;
    bool found = false;
  };

  [[nodiscard]] u32 node_count() const {
    return static_cast<u32>(out_head_.size());
  }

  u32 add_node() {
    out_head_.push(kNil);
    out_tail_.push(kNil);
    in_head_.push(kNil);
    in_tail_.push(kNil);
    out_deg_.push(0);
    in_deg_.push(0);
    kahn_hits_.push(0);
    return node_count() - 1;
  }

  void add_arc(u32 from, u32 to, size_t off, size_t len) {
    const u32 id = static_cast<u32>(from_.size());
    from_.push(from);
    to_.push(to);
    alive_.push(1);
    doff_.push(static_cast<u32>(off));
    dlen_.push(static_cast<u32>(len));
    onext_.push(kNil);
    oprev_.push(kNil);
    inext_.push(kNil);
    iprev_.push(kNil);
    link_out(id);
    link_in(id);
    ++alive_arcs_;
  }

  void add_zero_arc(u32 from, u32 to) {
    ensure_arena(1);
    const size_t off = used_;
    used_ += dk::point(0.0, arena_.subspan(used_, 1));
    add_arc(from, to, off, 1);
  }

  void remove_arc(u32 id) {
    assert(alive_[id] != 0);
    alive_[id] = 0;
    unlink_out(id);
    unlink_in(id);
    --alive_arcs_;
  }

  /// Moves an arc's head (the Dodin join surgery): unlinked from the old
  /// head's in-list, appended to the new head's — the order the
  /// reference network's retarget_arc produces.
  void retarget(u32 id, u32 new_to) {
    unlink_in(id);
    to_[id] = new_to;
    link_in(id);
  }

  // Doubly linked adjacency: append at the tail, unlink in place. Each
  // keeps the endpoint's live degree and the live node count current.
  void link_out(u32 id) {
    const u32 n = from_[id];
    gain_degree(n, out_deg_);
    oprev_[id] = out_tail_[n];
    onext_[id] = kNil;
    if (out_tail_[n] == kNil) {
      out_head_[n] = id;
    } else {
      onext_[out_tail_[n]] = id;
    }
    out_tail_[n] = id;
  }
  void link_in(u32 id) {
    const u32 n = to_[id];
    gain_degree(n, in_deg_);
    iprev_[id] = in_tail_[n];
    inext_[id] = kNil;
    if (in_tail_[n] == kNil) {
      in_head_[n] = id;
    } else {
      inext_[in_tail_[n]] = id;
    }
    in_tail_[n] = id;
  }
  void unlink_out(u32 id) {
    const u32 n = from_[id];
    const u32 prev = oprev_[id];
    const u32 next = onext_[id];
    if (prev == kNil) {
      out_head_[n] = next;
    } else {
      onext_[prev] = next;
    }
    if (next == kNil) {
      out_tail_[n] = prev;
    } else {
      oprev_[next] = prev;
    }
    lose_degree(n, out_deg_);
  }
  void unlink_in(u32 id) {
    const u32 n = to_[id];
    const u32 prev = iprev_[id];
    const u32 next = inext_[id];
    if (prev == kNil) {
      in_head_[n] = next;
    } else {
      inext_[prev] = next;
    }
    if (next == kNil) {
      in_tail_[n] = prev;
    } else {
      iprev_[next] = prev;
    }
    lose_degree(n, in_deg_);
  }
  void gain_degree(u32 n, GrowVec<u32>& deg) {
    if (in_deg_[n] + out_deg_[n] == 0) ++live_nodes_;
    ++deg[n];
  }
  void lose_degree(u32 n, GrowVec<u32>& deg) {
    --deg[n];
    if (in_deg_[n] + out_deg_[n] == 0) --live_nodes_;
  }

  [[nodiscard]] u32 first_out(u32 n) const { return out_head_[n]; }
  [[nodiscard]] u32 first_in(u32 n) const { return in_head_[n]; }
  [[nodiscard]] size_t out_degree(u32 n) const { return out_deg_[n]; }
  [[nodiscard]] size_t in_degree(u32 n) const { return in_deg_[n]; }

  // ------------------------------------------------------- atom arena

  /// Guarantees `need` free atoms at the arena tail. On overflow, live
  /// arc slices are compacted into the spare buffer (grown in place if
  /// necessary) and the buffers ping-pong.
  void ensure_arena(size_t need) {
    if (used_ + need <= arena_.size()) return;
    size_t live = 0;
    for (size_t id = 0; id < from_.size(); ++id) {
      if (alive_[id]) live += dlen_[id];
    }
    const size_t want = std::max(2 * (live + need), arena_.size());
    if (want > std::numeric_limits<u32>::max()) {
      // Arc slices store u32 offsets; a support explosion past 4G atoms
      // (tens of GB) means an unbudgeted reduction ran away.
      throw std::runtime_error(
          "FlatNetwork: atom arena exceeds the 2^32 offset range — set an "
          "atom budget (max_atoms)");
    }
    if (spare_.size() < live + need) spare_ = ws_.grow(spare_, want);
    size_t w = 0;
    for (size_t id = 0; id < from_.size(); ++id) {
      if (!alive_[id]) continue;
      const size_t len = dlen_[id];
      std::copy_n(arena_.begin() + doff_[id], len,
                  spare_.begin() + static_cast<std::ptrdiff_t>(w));
      doff_[id] = static_cast<u32>(w);
      w += len;
    }
    std::swap(arena_, spare_);
    used_ = w;
  }

  /// Copies an existing slice to the tail (caller ran ensure_arena) and
  /// returns its offset.
  size_t copy_slice(size_t off, size_t len) {
    std::copy_n(arena_.begin() + static_cast<std::ptrdiff_t>(off), len,
                arena_.begin() + static_cast<std::ptrdiff_t>(used_));
    const size_t at = used_;
    used_ += len;
    return at;
  }

  /// Applies the atom cap to a freshly written max_of result at the
  /// tail; truncate() folds the op's certificate into the pass
  /// certificate, the grouping the reference uses. Transient kernel
  /// scratch only inside the sub-frame.
  size_t apply_cap(size_t off, size_t m, size_t max_atoms) {
    if (max_atoms == 0 || m <= max_atoms) return m;
    const exp::Workspace::Frame frame(ws_);
    return dk::truncate(arena_.subspan(off, m), max_atoms, pass_cert_,
                        ws_.doubles(m - 1));
  }

  // -------------------------------------------------------- rewriting

  /// Mirrors the reference parallel_merge_at: group the out-arcs of `u`
  /// by head node (ascending head, insertion order within a head — the
  /// std::map iteration the reference performs), fold each group's
  /// distributions with max_of into the group's first arc, and remove
  /// the rest.
  size_t parallel_merge_at(u32 u, size_t max_atoms) {
    keys_.clear();
    gids_.clear();
    u32 seq = 0;
    for (u32 id = out_head_[u]; id != kNil; id = onext_[id]) {
      keys_.push((static_cast<u64>(to_[id]) << 32) | seq);
      gids_.push(id);
      ++seq;
    }
    std::sort(keys_.begin(), keys_.end());
    size_t merges = 0;
    size_t i = 0;
    while (i < keys_.size()) {
      const u32 head = static_cast<u32>(keys_[i] >> 32);
      size_t j = i;
      while (j < keys_.size() && static_cast<u32>(keys_[j] >> 32) == head) {
        ++j;
      }
      if (j - i >= 2) {
        const u32 acc = gids_[static_cast<u32>(keys_[i])];
        for (size_t t = i + 1; t < j; ++t) {
          const u32 y = gids_[static_cast<u32>(keys_[t])];
          fold_max_into(acc, y, max_atoms);
          ++merges;
        }
        touched_.push(head);
        touched_.push(u);
      }
      i = j;
    }
    return merges;
  }

  /// acc.dist = max(acc.dist, y.dist) with the atom cap; y removed.
  void fold_max_into(u32 acc, u32 y, size_t max_atoms) {
    const size_t nx = dlen_[acc];
    const size_t ny = dlen_[y];
    ensure_arena(nx + ny);
    const std::span<const Atom> xs =
        std::span<const Atom>(arena_).subspan(doff_[acc], nx);
    const std::span<const Atom> ys =
        std::span<const Atom>(arena_).subspan(doff_[y], ny);
    const std::span<Atom> out = arena_.subspan(used_, nx + ny);
    size_t m = dk::max_of(xs, ys, out);
    m = apply_cap(used_, m, max_atoms);
    doff_[acc] = static_cast<u32>(used_);
    dlen_[acc] = static_cast<u32>(m);
    used_ += m;
    remove_arc(y);
  }

  /// Mirrors the reference series_merge_at.
  bool series_merge_at(u32 v, size_t max_atoms) {
    if (v == source_ || v == sink_) return false;
    if (in_degree(v) != 1 || out_degree(v) != 1) return false;
    const u32 in_id = first_in(v);
    const u32 out_id = first_out(v);
    const u32 u = from_[in_id];
    const u32 w = to_[out_id];
    const size_t nx = dlen_[in_id];
    const size_t ny = dlen_[out_id];
    const dk::ConvolveScratch need = dk::convolve_scratch(nx, ny, max_atoms);
    ensure_arena(need.out);
    const std::span<const Atom> xs =
        std::span<const Atom>(arena_).subspan(doff_[in_id], nx);
    const std::span<const Atom> ys =
        std::span<const Atom>(arena_).subspan(doff_[out_id], ny);
    const std::span<Atom> out = arena_.subspan(used_, need.out);
    size_t m;
    {
      const exp::Workspace::Frame frame(ws_);
      m = dk::convolve(xs, ys, max_atoms, pass_cert_, out,
                       ws_.atoms(need.atoms), ws_.doubles(need.gaps));
    }
    const size_t off = used_;
    used_ += m;
    remove_arc(in_id);
    remove_arc(out_id);
    add_arc(u, w, off, m);
    touched_.push(u);
    touched_.push(w);
    return true;
  }

  /// Mirrors the reference's worklist pass on `work_` (one "pass" in the
  /// truncation-certificate accounting).
  void reduce_worklist(size_t max_atoms) {
    pass_cert_ = dk::TruncationCert{};
    while (!work_.empty()) {
      const u32 v = work_.back();
      work_.pop_back();
      touched_.clear();
      const size_t p = parallel_merge_at(v, max_atoms);
      stats_.parallel += p;
      if (series_merge_at(v, max_atoms)) ++stats_.series;
      for (size_t t = 0; t < touched_.size(); ++t) work_.push(touched_[t]);
      // A parallel merge at v may enable a series merge at v itself.
      if (p > 0) work_.push(v);
    }
    cert_.accumulate(pass_cert_);
#ifndef NDEBUG
    check_invariants();
#endif
  }

#ifndef NDEBUG
  /// Recounts the maintained bookkeeping from the arc table and asserts
  /// it matches: live in/out degrees, the live arc and node counts, and
  /// list membership (every linked arc is live and sits in its own
  /// endpoint's list; each list walk terminates within the recounted
  /// degree, so no arc is linked twice, and reaches that degree, so no
  /// live arc is missing).
  void check_invariants() {
    const exp::Workspace::Frame frame(ws_);
    const u32 n = node_count();
    const std::span<u32> outs = ws_.u32(n);
    const std::span<u32> ins = ws_.u32(n);
    std::fill(outs.begin(), outs.end(), 0u);
    std::fill(ins.begin(), ins.end(), 0u);
    size_t live_arcs = 0;
    for (size_t id = 0; id < from_.size(); ++id) {
      if (alive_[id] == 0) continue;
      ++outs[from_[id]];
      ++ins[to_[id]];
      ++live_arcs;
    }
    assert(live_arcs == alive_arcs_);
    size_t live_nodes = 0;
    for (u32 v = 0; v < n; ++v) {
      assert(outs[v] == out_deg_[v] && ins[v] == in_deg_[v]);
      assert(kahn_hits_[v] == 0);
      if (outs[v] + ins[v] > 0) ++live_nodes;
      u32 k = 0;
      u32 prev = kNil;
      for (u32 id = out_head_[v]; id != kNil; id = onext_[id], ++k) {
        assert(k < outs[v]);
        assert(alive_[id] != 0 && from_[id] == v && oprev_[id] == prev);
        prev = id;
      }
      assert(k == outs[v] && out_tail_[v] == prev);
      k = 0;
      prev = kNil;
      for (u32 id = in_head_[v]; id != kNil; id = inext_[id], ++k) {
        assert(k < ins[v]);
        assert(alive_[id] != 0 && to_[id] == v && iprev_[id] == prev);
        prev = id;
      }
      assert(k == ins[v] && in_tail_[v] == prev);
    }
    assert(live_nodes == live_nodes_);
  }
#endif

  // ------------------------------------------------------ Dodin pieces

  [[nodiscard]] bool dodin_single_arc() const {
    return alive_arcs_ == 1 && out_degree(source_) == 1 &&
           to_[first_out(source_)] == sink_;
  }

  /// Mirrors the reference pick_duplication: first join in topological
  /// order wins; otherwise the first fork. The order is FIFO Kahn from
  /// the source over live arcs (see the file comment for why it equals
  /// the reference's all-node order); kahn_hits_ counts each node's
  /// released in-arcs and is zero again on return.
  [[nodiscard]] Site pick_duplication() {
    const exp::Workspace::Frame frame(ws_);
    // Sized for a source that wrongly has an in-arc and is enqueued twice;
    // the check below rejects that case.
    const std::span<u32> order = ws_.u32(live_nodes_ + 1);
    size_t cnt = 0;
    order[cnt++] = source_;
    for (size_t head = 0; head < cnt; ++head) {
      for (u32 id = out_head_[order[head]]; id != kNil; id = onext_[id]) {
        const u32 w = to_[id];
        if (++kahn_hits_[w] == in_deg_[w]) order[cnt++] = w;
      }
    }
    for (size_t i = 0; i < cnt; ++i) kahn_hits_[order[i]] = 0;
    // With no in-arc at the source, every node is enqueued at most once.
    // Then visiting every live node rules out a cycle and an unreachable
    // node, and every node hit was visited, so kahn_hits_ is zero again.
    if (in_deg_[source_] != 0 || cnt != live_nodes_) {
      throw std::logic_error(
          "FlatNetwork: live network has a cycle or a node unreachable from "
          "the source (internal error)");
    }
    Site fork_site;
    for (size_t i = 0; i < cnt; ++i) {
      const u32 v = order[i];
      if (v == source_ || v == sink_) continue;
      const size_t in = in_degree(v);
      const size_t out = out_degree(v);
      if (in >= 2 && out == 1) return {v, /*is_join=*/true, true};
      if (!fork_site.found && in == 1 && out >= 2) {
        fork_site = {v, /*is_join=*/false, true};
      }
    }
    return fork_site;
  }

  exp::Workspace& ws_;
  // Arc table (parallel grow-vectors, indexed by arc id).
  GrowVec<u32> from_, to_, alive_, doff_, dlen_;
  // Doubly linked adjacency links (live arcs only, insertion order).
  GrowVec<u32> onext_, oprev_, inext_, iprev_;
  // Per node: list heads/tails, live degrees, Kahn scratch (kept zero).
  GrowVec<u32> out_head_, out_tail_, in_head_, in_tail_;
  GrowVec<u32> out_deg_, in_deg_, kahn_hits_;
  // Worklists / scratch.
  GrowVec<u32> work_, touched_;
  GrowVec<u64> keys_;
  GrowVec<u32> gids_;
  // Atom arena (ping-pong).
  std::span<Atom> arena_;
  std::span<Atom> spare_;
  size_t used_ = 0;

  u32 source_ = 0;
  u32 sink_ = 0;
  size_t alive_arcs_ = 0;
  size_t live_nodes_ = 0;  // nodes with at least one live arc
  ReduceStats stats_;
  dk::TruncationCert cert_;       // evaluation total (sum of passes)
  dk::TruncationCert pass_cert_;  // current reduce_worklist pass
};

EXPMK_NOALLOC void check_two_state(const scenario::Scenario& sc, const char* who) {
  if (sc.retry() != core::RetryModel::TwoState) {
    throw std::invalid_argument(
        std::string(who) +
        ": scenario must be compiled with the TwoState retry model");
  }
}

/// Builds the scenario's network: task i's law is its two-state law
/// (a_i w.p. p_i, else 2 a_i), written into the builder's scratch; a
/// zero-weight (virtual) task cannot fail and gets a point mass at 0.
EXPMK_NOALLOC void build_two_state(FlatNetwork& net,
                                   const scenario::Scenario& sc) {
  const std::span<const std::uint32_t> position = sc.csr().position();
  const std::span<const double> w = sc.weights_csr();
  const std::span<const double> p = sc.p_success_csr();
  net.build(sc.dag(), [&](graph::TaskId i, std::span<Atom, 2> scratch) {
    const std::uint32_t pos = position[i];
    const double a = w[pos];
    const size_t len = a <= 0.0 ? dk::point(0.0, scratch)
                                : dk::two_state(a, p[pos], scratch);
    return std::span<const Atom>(scratch.data(), len);
  });
}

EXPMK_NOALLOC void build_laws(FlatNetwork& net, const graph::Dag& g,
                              const dk::LawTable& laws) {
  net.build(g, [&](graph::TaskId i, std::span<Atom, 2>) {
    return laws.law(i);
  });
}

/// Validates the law table — one non-empty law per task, offsets
/// monotone and inside the atom span; returns its total atom count.
EXPMK_NOALLOC size_t check_laws(const graph::Dag& g, const dk::LawTable& laws,
                                const char* who) {
  const auto fail = [&](const char* why) {
    throw std::invalid_argument(std::string(who) + ": " + why);
  };
  if (laws.offsets.size() != g.task_count() + 1) {
    fail("law table needs task_count + 1 offsets (one law per task)");
  }
  for (size_t i = 0; i < g.task_count(); ++i) {
    if (laws.offsets[i + 1] < laws.offsets[i]) {
      fail("law table offsets are not monotone");
    }
    if (laws.offsets[i + 1] == laws.offsets[i]) {
      fail("law table has an empty law");
    }
  }
  if (laws.offsets.back() > laws.atoms.size()) {
    fail("law table offsets run past its atom span");
  }
  return laws.offsets.back() - laws.offsets.front();
}

/// Materializes the final law into `capture` when the caller asked.
EXPMK_NOALLOC void capture_law(std::span<const Atom> atoms,
                               prob::DiscreteDistribution* capture) {
  if (capture == nullptr) return;
  // NOLINTNEXTLINE(expmk-no-alloc-kernel): capture path — the caller passed a distribution sink and opted into this allocation
  *capture = prob::DiscreteDistribution::from_canonical(  // NOLINT(expmk-no-alloc-kernel): capture path — caller opted in
      std::vector<Atom>(atoms.begin(), atoms.end()));  // NOLINT(expmk-no-alloc-kernel): capture path — caller opted in
}

EXPMK_NOALLOC SpFlatEvaluation finish_sp(FlatNetwork& net, size_t max_atoms,
                                         prob::DiscreteDistribution* capture) {
  net.reduce_exhaustively(max_atoms);
  SpFlatEvaluation out;
  out.stats = net.stats();
  out.is_series_parallel = out.stats.reduced_to_single_arc;
  if (out.is_series_parallel) {
    const std::span<const Atom> atoms = net.final_atoms();
    out.mean = dk::mean(atoms);
    capture_law(atoms, capture);
  }
  return out;
}

EXPMK_NOALLOC DodinFlatResult finish_dodin(FlatNetwork& net,
                                           const DodinOptions& options,
                                           prob::DiscreteDistribution* capture) {
  DodinFlatResult out;
  out.duplications =
      net.run_dodin(options.max_atoms, options.max_duplications);
  const ReduceStats stats = net.stats();
  out.series_reductions = stats.series;
  out.parallel_reductions = stats.parallel;
  out.truncation = stats.truncation;
  const std::span<const Atom> atoms = net.final_atoms();
  out.mean = dk::mean(atoms);
  capture_law(atoms, capture);
  return out;
}

}  // namespace

EXPMK_NOALLOC SpFlatEvaluation evaluate_sp_flat(const scenario::Scenario& sc,
                                  std::size_t max_atoms, exp::Workspace& ws,
                                  prob::DiscreteDistribution* capture) {
  check_two_state(sc, "evaluate_sp");
  const exp::Workspace::Frame frame(ws);
  FlatNetwork net(ws, sc.task_count(), sc.dag().edge_count(),
                  2 * sc.task_count());
  build_two_state(net, sc);
  return finish_sp(net, max_atoms, capture);
}

EXPMK_NOALLOC SpFlatEvaluation evaluate_sp_laws(
    const graph::Dag& g, const prob::dist_kernels::LawTable& laws,
    std::size_t max_atoms, exp::Workspace& ws,
    prob::DiscreteDistribution* capture) {
  const size_t law_atoms = check_laws(g, laws, "evaluate_sp_laws");
  const exp::Workspace::Frame frame(ws);
  FlatNetwork net(ws, g.task_count(), g.edge_count(), law_atoms);
  build_laws(net, g, laws);
  return finish_sp(net, max_atoms, capture);
}

EXPMK_NOALLOC DodinFlatResult dodin_two_state_flat(const scenario::Scenario& sc,
                                     const DodinOptions& options,
                                     exp::Workspace& ws,
                                     prob::DiscreteDistribution* capture) {
  check_two_state(sc, "dodin_two_state");
  const exp::Workspace::Frame frame(ws);
  FlatNetwork net(ws, sc.task_count(), sc.dag().edge_count(),
                  2 * sc.task_count());
  build_two_state(net, sc);
  return finish_dodin(net, options, capture);
}

EXPMK_NOALLOC DodinFlatResult dodin_laws(
    const graph::Dag& g, const prob::dist_kernels::LawTable& laws,
    const DodinOptions& options, exp::Workspace& ws,
    prob::DiscreteDistribution* capture) {
  const size_t law_atoms = check_laws(g, laws, "dodin_laws");
  const exp::Workspace::Frame frame(ws);
  FlatNetwork net(ws, g.task_count(), g.edge_count(), law_atoms);
  build_laws(net, g, laws);
  return finish_dodin(net, options, capture);
}

}  // namespace expmk::sp
