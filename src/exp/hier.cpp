#include "exp/hier.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "graph/csr.hpp"
#include "graph/sp_tree.hpp"
#include "mc/engine.hpp"
#include "prob/rng.hpp"
#include "scenario/law_store.hpp"
#include "spgraph/dodin.hpp"
#include "spgraph/sp_reduce.hpp"
#include "util/contracts.hpp"
#include "util/thread_pool.hpp"

namespace expmk::exp::hier {

namespace {

namespace dk = prob::dist_kernels;
using graph::SpDecomposition;

/// Two independent 64-bit accumulators over the same word stream: lane
/// `a` is plain FNV-1a, lane `b` FNV-folds the splitmix64 avalanche of
/// each word. A collision must defeat both lanes at once, which makes
/// the 128-bit key safe to trust for memoization (a collision would
/// silently return the WRONG distribution, so 64 bits alone would not
/// do at million-module scale).
struct H128 {
  std::uint64_t a = 0xcbf29ce484222325ULL;
  std::uint64_t b = 0x6c62272e07bb0142ULL;

  void mix(std::uint64_t w) noexcept {
    a = (a ^ w) * 0x100000001b3ULL;
    std::uint64_t z = w + 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    b = (b ^ (z ^ (z >> 31))) * 0x100000001b3ULL;
  }
};

EXPMK_NOALLOC std::uint64_t double_bits(double x) noexcept {
  std::uint64_t u;
  static_assert(sizeof(u) == sizeof(x));
  std::memcpy(&u, &x, sizeof(u));
  return u;
}

/// Laws wider than this are not stored: an exact deep-series law can be
/// astronomically wide, and storing it would trade unbounded memory for
/// one convolution chain.
constexpr std::size_t kMaxStoredAtoms = std::size_t{1} << 16;

/// Lookup counters across every scenario's store, since memo_clear().
std::atomic<std::uint64_t> g_hits{0};
std::atomic<std::uint64_t> g_misses{0};

/// The stack every law of one build lives on, in one workspace lease that
/// grows in place (Workspace::grow keeps the live prefix [0, top)). A
/// repeated build on a warm workspace re-leases a slot that is already
/// big enough.
class AtomStack {
 public:
  AtomStack(Workspace& ws, std::size_t initial)
      : ws_(ws), buf_(ws.atoms(initial)) {}

  /// Guarantees room up to offset `end`, growing the stack's lease in
  /// place. Invalidates earlier spans.
  void reserve(std::size_t end) {
    if (end <= buf_.size()) return;
    buf_ = ws_.grow(buf_, std::max(end, 2 * buf_.size()));
  }
  [[nodiscard]] std::span<prob::Atom> at(std::size_t off, std::size_t n) {
    return buf_.subspan(off, n);
  }
  [[nodiscard]] std::size_t top() const noexcept { return top_; }
  void set_top(std::size_t t) noexcept { top_ = t; }

 private:
  Workspace& ws_;
  std::span<prob::Atom> buf_;
  std::size_t top_ = 0;
};

/// Per-module build slots over workspace leases: where a built module's
/// law sits on the atom stack (offset, length), and the certified
/// truncation of its subtree (events, merges; up, down).
class BuiltSlots {
 public:
  BuiltSlots(Workspace& ws, std::size_t modules)
      : u_(ws.u64(4 * modules)), d_(ws.doubles(2 * modules)) {}

  void set(std::size_t m, std::size_t off, std::size_t len,
           const dk::TruncationCert& c) noexcept {
    u_[4 * m] = off;
    u_[4 * m + 1] = len;
    u_[4 * m + 2] = c.events;
    u_[4 * m + 3] = c.merges;
    d_[2 * m] = c.up;
    d_[2 * m + 1] = c.down;
  }
  [[nodiscard]] std::size_t off(std::size_t m) const { return u_[4 * m]; }
  [[nodiscard]] std::size_t len(std::size_t m) const { return u_[4 * m + 1]; }
  [[nodiscard]] dk::TruncationCert cert(std::size_t m) const {
    return {d_[2 * m], d_[2 * m + 1], u_[4 * m + 2], u_[4 * m + 3]};
  }

 private:
  std::span<std::uint64_t> u_;
  std::span<double> d_;
};

}  // namespace

ModuleDists build_module_distributions(const scenario::Scenario& sc,
                                       std::size_t max_atoms, Workspace& ws) {
  if (sc.retry() != core::RetryModel::TwoState) {
    throw std::invalid_argument(
        "hier: only the two-state retry model is supported");
  }
  const SpDecomposition& d = sc.sp_decomposition();
  // Leaves are Dag ids; their constants are read through the position map.
  const std::span<const std::uint32_t> position = sc.csr().position();
  const std::span<const double> w = sc.weights_csr();
  const std::span<const double> p = sc.p_success_csr();
  const auto& mods = d.modules;
  const std::size_t nm = mods.size();
  const std::size_t qn = d.quotient.task_count();

  // Pass 1: content hash per module (two lanes per module). The modules
  // vector is ordered children-before-parents, so one ascending pass
  // folds child hashes into parents without recursion. The atom budget
  // is mixed into the LOOKUP key, not here: the same structure under two
  // budgets yields two distinct (both correct) cache rows.
  const std::span<std::uint64_t> mh = ws.u64(2 * nm);
  for (std::size_t m = 0; m < nm; ++m) {
    const SpDecomposition::Module& mod = mods[m];
    H128 h;
    if (mod.kind == SpDecomposition::Kind::Leaf) {
      h.mix(0x4C);  // 'L'
      h.mix(double_bits(w[position[mod.task]]));
      h.mix(double_bits(p[position[mod.task]]));
    } else {
      h.mix(mod.kind == SpDecomposition::Kind::Series ? 0x53 : 0x50);
      h.mix(mod.child_count);
      for (std::uint32_t i = 0; i < mod.child_count; ++i) {
        const std::uint32_t c = d.children[mod.first_child + i];
        h.mix(mh[2 * c]);
        h.mix(mh[2 * c + 1]);
      }
    }
    mh[2 * m] = h.a;
    mh[2 * m + 1] = h.b;
  }
  const auto key_of = [&](std::size_t m) {
    H128 h{mh[2 * m], mh[2 * m + 1]};
    h.mix(static_cast<std::uint64_t>(max_atoms));
    return scenario::LawKey{h.a, h.b};
  };

  ModuleDists out;
  out.stats.module_count = nm;
  out.stats.quotient_tasks = qn;
  out.stats.collapsed_tasks = d.collapsed_tasks;

  // Pass 2: evaluate each quotient root by explicit-stack post-order —
  // alternating series/parallel nesting can be as deep as the graph is
  // large, so recursion could overflow at the million-task scale.
  // A store hit on a composite skips its whole subtree. The modules form
  // a forest, so when a composite's children are all built their laws
  // are the top segment of the atom stack; the fold writes the parent's
  // law over that segment. What stays on the stack is one law per
  // quotient root, in quotient order: the law table.
  scenario::LawStore& store = sc.law_store();
  BuiltSlots built(ws, nm);
  const std::span<std::uint64_t> walk = ws.u64(nm);  // (module << 1) | expanded
  const std::span<std::uint64_t> offsets = ws.u64(qn + 1);
  AtomStack stack(ws, std::max<std::size_t>(4 * qn, 256));
  for (std::size_t q = 0; q < qn; ++q) {
    offsets[q] = stack.top();
    std::size_t depth = 0;
    walk[depth++] = std::uint64_t{d.quotient_module[q]} << 1;
    while (depth > 0) {
      const auto m = static_cast<std::uint32_t>(walk[depth - 1] >> 1);
      const bool expanded = (walk[depth - 1] & 1) != 0;
      const SpDecomposition::Module& mod = mods[m];
      const std::size_t top = stack.top();
      if (mod.kind == SpDecomposition::Kind::Leaf) {
        // Zero-weight (virtual) tasks cannot fail — point mass at 0, the
        // same special case as the flat engine's builders.
        const std::uint32_t pos = position[mod.task];
        const double a = w[pos];
        stack.reserve(top + 2);
        const std::size_t len = a <= 0.0
                                    ? dk::point(0.0, stack.at(top, 2))
                                    : dk::two_state(a, p[pos],
                                                    stack.at(top, 2));
        built.set(m, top, len, {});
        stack.set_top(top + len);
        --depth;
        continue;
      }
      if (!expanded) {
        // A stored law never changes while the scenario lives, so it is
        // copied into the arena without a lock.
        if (const scenario::StoredLaw* hit = store.find(key_of(m))) {
          const std::vector<prob::Atom>& law = hit->atoms;
          stack.reserve(top + law.size());
          std::copy(law.begin(), law.end(),
                    stack.at(top, law.size()).begin());
          built.set(m, top, law.size(), hit->cert);
          stack.set_top(top + law.size());
          ++out.stats.memo_hits;
          g_hits.fetch_add(1, std::memory_order_relaxed);
          --depth;
          continue;
        }
        ++out.stats.memo_misses;
        g_misses.fetch_add(1, std::memory_order_relaxed);
        walk[depth - 1] |= 1;
        for (std::uint32_t i = 0; i < mod.child_count; ++i) {
          walk[depth++] = std::uint64_t{d.children[mod.first_child + i]} << 1;
        }
        continue;
      }
      // Children built: fold them in child order. The accumulator starts
      // as child 0's law in place; each step computes into transient
      // scratch, truncates there, and copies the result to `base`, just
      // above the children. Room for it is reserved first, at this frame
      // level, with the stack top covering the live accumulator.
      const std::uint32_t* kids = &d.children[mod.first_child];
      const bool series = mod.kind == SpDecomposition::Kind::Series;
      const std::size_t base = top;
      std::size_t seg = base;
      for (std::uint32_t i = 0; i < mod.child_count; ++i) {
        seg = std::min<std::size_t>(seg, built.off(kids[i]));
      }
      std::size_t acc_off = built.off(kids[0]);
      std::size_t acc_len = built.len(kids[0]);
      dk::TruncationCert acc_cert = built.cert(kids[0]);
      dk::TruncationCert ops{};
      for (std::uint32_t i = 1; i < mod.child_count; ++i) {
        const std::uint32_t c = kids[i];
        const std::size_t c_len = built.len(c);
        const std::size_t cap = series ? acc_len * c_len : acc_len + c_len;
        stack.set_top(acc_off == base ? base + acc_len : base);
        const std::size_t most =
            max_atoms != 0 ? std::min(cap, max_atoms) : cap;
        stack.reserve(base + most);
        const std::span<const prob::Atom> x = stack.at(acc_off, acc_len);
        const std::span<const prob::Atom> y = stack.at(built.off(c), c_len);
        const Workspace::Frame frame(ws);
        // Each capped kernel sums its certificate locally and folds it
        // into the step total `ops`: the grouping every pinned envelope
        // was built on. A binned convolve leases only its bins.
        std::span<prob::Atom> res;
        std::size_t n;
        if (series) {
          const dk::ConvolveScratch need =
              dk::convolve_scratch(acc_len, c_len, max_atoms);
          res = ws.atoms(need.out);
          n = dk::convolve(x, y, max_atoms, ops, res, ws.atoms(need.atoms),
                           ws.doubles(need.gaps));
        } else {
          res = ws.atoms(cap);
          n = dk::max_of(x, y, res);
          if (max_atoms != 0 && n > max_atoms) {
            n = dk::truncate(res.first(n), max_atoms, ops, ws.doubles(n - 1));
          }
        }
        std::copy_n(res.begin(), n, stack.at(base, n).begin());
        acc_off = base;
        acc_len = n;
        acc_cert.accumulate(built.cert(c));
      }
      acc_cert.accumulate(ops);
      if (acc_off != seg) {
        const std::span<const prob::Atom> acc = stack.at(acc_off, acc_len);
        std::copy(acc.begin(), acc.end(), stack.at(seg, acc_len).begin());
      }
      if (acc_len <= kMaxStoredAtoms) {
        store.insert(key_of(m), stack.at(seg, acc_len), acc_cert);
      }
      built.set(m, seg, acc_len, acc_cert);
      stack.set_top(seg + acc_len);
      --depth;
    }
    out.truncation.accumulate(built.cert(d.quotient_module[q]));
  }
  offsets[qn] = stack.top();
  out.laws = {stack.at(0, stack.top()), offsets};
  return out;
}

HierSpResult evaluate_sp_hier(const scenario::Scenario& sc,
                              std::size_t max_atoms, Workspace& ws,
                              prob::DiscreteDistribution* capture) {
  const Workspace::Frame frame(ws);
  const ModuleDists md = build_module_distributions(sc, max_atoms, ws);
  HierSpResult out;
  out.stats = md.stats;
  out.truncation = md.truncation;
  const sp::SpFlatEvaluation ev = sp::evaluate_sp_laws(
      sc.sp_decomposition().quotient, md.laws, max_atoms, ws, capture);
  out.is_series_parallel = ev.is_series_parallel;
  if (!ev.is_series_parallel) return out;
  out.truncation.accumulate(ev.stats.truncation);
  out.mean = ev.mean;
  return out;
}

HierDodinBound evaluate_dodin_hier(const scenario::Scenario& sc,
                                   std::size_t max_atoms, Workspace& ws,
                                   prob::DiscreteDistribution* capture) {
  const Workspace::Frame frame(ws);
  const ModuleDists md = build_module_distributions(sc, max_atoms, ws);
  HierDodinBound out;
  out.stats = md.stats;
  out.truncation = md.truncation;
  const sp::DodinFlatResult dr =
      sp::dodin_laws(sc.sp_decomposition().quotient, md.laws,
                     {.max_atoms = max_atoms}, ws, capture);
  out.truncation.accumulate(dr.truncation);
  out.duplications = dr.duplications;
  out.mean = dr.mean;
  return out;
}

HierMcResult evaluate_mc_hier(const scenario::Scenario& sc,
                              std::size_t max_atoms, Workspace& ws,
                              std::uint64_t trials, std::uint64_t seed,
                              std::size_t threads) {
  if (trials == 0) throw std::invalid_argument("mc.hier: trials must be >= 1");
  const Workspace::Frame frame(ws);
  const ModuleDists md = build_module_distributions(sc, max_atoms, ws);
  const graph::CsrDag& qcsr = sc.sp_decomposition().quotient_csr;
  const std::size_t qn = qcsr.task_count();
  const std::span<const graph::TaskId> order = qcsr.order();

  // Same determinism discipline as mc/engine.cpp: the engines' fixed
  // chunk partition of the trial range, one counter-based RNG stream per
  // trial, and a serial chunk-order fold of the accumulators — the
  // worker count never touches the arithmetic. Workers only read the
  // law table; each chunk leases its scratch from its own thread's
  // pooled workspace.
  const std::size_t chunks = static_cast<std::size_t>(
      std::min<std::uint64_t>(mc::kEngineChunks, trials));
  struct Acc {
    double sum = 0.0;
    double sum_sq = 0.0;
  };
  std::vector<Acc> accs(chunks);
  util::for_each_chunk(util::resolve_threads(threads), chunks,
                       [&](std::size_t c) {
    Acc& acc = accs[c];
    const std::uint64_t begin = trials * c / chunks;
    const std::uint64_t end = trials * (c + 1) / chunks;
    Workspace& tws = Workspace::local();
    const Workspace::Frame tframe(tws);
    const std::span<double> durations = tws.doubles(qn);
    const std::span<double> finish = tws.doubles(qn);
    for (std::uint64_t t = begin; t < end; ++t) {
      prob::McRng rng(seed, t);
      // Draw in position order — one quantile per quotient node — then
      // the finish-time DP over the quotient CSR.
      for (std::uint32_t pos = 0; pos < qn; ++pos) {
        durations[pos] =
            dk::quantile(md.laws.law(order[pos]), rng.uniform_positive());
      }
      const double makespan =
          graph::critical_path_length(qcsr, durations, finish);
      acc.sum += makespan;
      acc.sum_sq += makespan * makespan;
    }
  });

  double sum = 0.0;
  double sum_sq = 0.0;
  for (const Acc& a : accs) {
    sum += a.sum;
    sum_sq += a.sum_sq;
  }
  HierMcResult out;
  out.trials = trials;
  out.stats = md.stats;
  out.truncation = md.truncation;
  const double n = static_cast<double>(trials);
  out.mean = sum / n;
  const double var =
      trials > 1 ? std::max(0.0, (sum_sq - n * out.mean * out.mean) / (n - 1.0))
                 : 0.0;
  out.std_error = std::sqrt(var / n);
  return out;
}

MemoStats memo_stats() {
  const scenario::LawStore::Live live = scenario::LawStore::live();
  return MemoStats{g_hits.load(std::memory_order_relaxed),
                   g_misses.load(std::memory_order_relaxed), live.laws,
                   live.bytes};
}

void memo_clear() {
  scenario::LawStore::clear_index();
  g_hits.store(0, std::memory_order_relaxed);
  g_misses.store(0, std::memory_order_relaxed);
}

}  // namespace expmk::exp::hier
