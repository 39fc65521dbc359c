#include "exp/hier.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <utility>

#include "graph/csr.hpp"
#include "graph/sp_tree.hpp"
#include "util/contracts.hpp"
#include "prob/rng.hpp"
#include "spgraph/dodin.hpp"
#include "spgraph/sp_reduce.hpp"
#include "util/thread_pool.hpp"

namespace expmk::exp::hier {

namespace {

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

struct MemoKey {
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  // Ordered, not hashed: the deterministic core bans unordered
  // containers (expmk-determinism), and a sorted map keeps every code
  // path — including any future iteration — order-stable for free.
  auto operator<=>(const MemoKey&) const = default;
};

/// A cached module: its makespan law plus the cumulative certified
/// truncation of building its WHOLE subtree, so a cache hit charges the
/// caller the same envelope the from-scratch build would have.
struct BuiltModule {
  prob::DiscreteDistribution dist;
  prob::dist_kernels::TruncationCert cert;
};

/// Bounds on the process-wide cache: entry count (insertions stop, the
/// cache never evicts — the workloads that benefit are repetitive, so
/// the distinct-module population is small) and atoms per stored law
/// (an exact deep-series law can be astronomically wide; caching it
/// would trade unbounded memory for one convolution chain).
constexpr std::size_t kMemoMaxEntries = std::size_t{1} << 16;
constexpr std::size_t kMemoMaxAtomsPerEntry = std::size_t{1} << 16;

struct Memo {
  std::mutex mu;
  std::map<MemoKey, BuiltModule> map;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
};

Memo& memo() {
  static Memo m;
  return m;
}

}  // namespace

ModuleDists build_module_distributions(const scenario::Scenario& sc,
                                       std::size_t max_atoms) {
  if (sc.retry() != core::RetryModel::TwoState) {
    throw std::invalid_argument(
        "hier: only the two-state retry model is supported");
  }
  const SpDecomposition& d = sc.sp_decomposition();
  const graph::Dag& g = sc.dag();
  const std::span<const double> p = sc.p_success();
  const auto& mods = d.modules;
  const std::size_t nm = mods.size();

  // Pass 1: content hash per module. The modules vector is ordered
  // children-before-parents, so one ascending pass folds child hashes
  // into parents without recursion. The atom budget is mixed into the
  // LOOKUP key, not here: the same structure under two budgets yields
  // two distinct (both correct) cache rows.
  std::vector<H128> mh(nm);
  for (std::size_t m = 0; m < nm; ++m) {
    const SpDecomposition::Module& mod = mods[m];
    H128 h;
    if (mod.kind == SpDecomposition::Kind::Leaf) {
      h.mix(0x4C);  // 'L'
      h.mix(double_bits(g.weight(mod.task)));
      h.mix(double_bits(p[mod.task]));
    } else {
      h.mix(mod.kind == SpDecomposition::Kind::Series ? 0x53 : 0x50);
      h.mix(mod.child_count);
      for (std::uint32_t i = 0; i < mod.child_count; ++i) {
        const std::uint32_t c = d.children[mod.first_child + i];
        h.mix(mh[c].a);
        h.mix(mh[c].b);
      }
    }
    mh[m] = h;
  }
  const auto key_of = [&](std::size_t m) {
    H128 h = mh[m];
    h.mix(static_cast<std::uint64_t>(max_atoms));
    return MemoKey{h.a, h.b};
  };

  ModuleDists out;
  out.stats.module_count = nm;
  out.stats.quotient_tasks = d.quotient.task_count();
  out.stats.collapsed_tasks = d.collapsed_tasks;

  // Pass 2: evaluate each quotient root by explicit-stack post-order —
  // series chains nest modules as deep as the chain is long, so
  // recursion would overflow at the million-task scale this exists for.
  // A cache hit on a composite skips its whole subtree. Child slots are
  // released as soon as the parent consumes them, so live memory tracks
  // the evaluation frontier rather than the module count.
  Memo& mm = memo();
  std::vector<std::optional<BuiltModule>> built(nm);
  std::vector<std::pair<std::uint32_t, bool>> stack;
  const std::size_t qn = d.quotient.task_count();
  out.by_quotient_node.reserve(qn);
  for (std::size_t q = 0; q < qn; ++q) {
    const std::uint32_t root = d.quotient_module[q];
    stack.clear();
    stack.push_back({root, false});
    while (!stack.empty()) {
      const std::uint32_t m = stack.back().first;
      const bool expanded = stack.back().second;
      if (built[m]) {
        stack.pop_back();
        continue;
      }
      const SpDecomposition::Module& mod = mods[m];
      if (mod.kind == SpDecomposition::Kind::Leaf) {
        // Zero-weight (virtual) tasks cannot fail — point mass at 0, the
        // same special case as the flat engine's builders.
        const double a = g.weight(mod.task);
        built[m] = BuiltModule{
            a <= 0.0
                ? prob::DiscreteDistribution::point(0.0)
                : prob::DiscreteDistribution::two_state(a, p[mod.task]),
            {}};
        stack.pop_back();
        continue;
      }
      if (!expanded) {
        {
          const MemoKey key = key_of(m);
          const std::lock_guard<std::mutex> lock(mm.mu);
          const auto it = mm.map.find(key);
          if (it != mm.map.end()) {
            built[m] = it->second;  // copied under the lock
            ++out.stats.memo_hits;
            ++mm.hits;
            stack.pop_back();
            continue;
          }
          ++out.stats.memo_misses;
          ++mm.misses;
        }
        stack.back().second = true;
        for (std::uint32_t i = 0; i < mod.child_count; ++i) {
          // `stack.back()` is dead from the first push on.
          stack.push_back({d.children[mod.first_child + i], false});
        }
        continue;
      }
      // Children built: fold them in child order.
      prob::dist_kernels::TruncationCert ops{};
      const std::uint32_t c0 = d.children[mod.first_child];
      BuiltModule acc = std::move(*built[c0]);
      built[c0].reset();
      for (std::uint32_t i = 1; i < mod.child_count; ++i) {
        const std::uint32_t c = d.children[mod.first_child + i];
        BuiltModule& child = *built[c];
        acc.dist = mod.kind == SpDecomposition::Kind::Series
                       ? prob::DiscreteDistribution::convolve(
                             acc.dist, child.dist, max_atoms, &ops)
                       : prob::DiscreteDistribution::max_of(
                             acc.dist, child.dist, max_atoms, &ops);
        acc.cert.accumulate(child.cert);
        built[c].reset();
      }
      acc.cert.accumulate(ops);
      {
        const std::lock_guard<std::mutex> lock(mm.mu);
        if (mm.map.size() < kMemoMaxEntries &&
            acc.dist.size() <= kMemoMaxAtomsPerEntry) {
          mm.map.emplace(key_of(m), acc);
        }
      }
      built[m] = std::move(acc);
      stack.pop_back();
    }
    out.truncation.accumulate(built[root]->cert);
    out.by_quotient_node.push_back(std::move(built[root]->dist));
    built[root].reset();
  }
  return out;
}

HierSpResult evaluate_sp_hier(const scenario::Scenario& sc,
                              std::size_t max_atoms, Workspace& ws,
                              prob::DiscreteDistribution* capture) {
  const ModuleDists md = build_module_distributions(sc, max_atoms);
  HierSpResult out;
  out.stats = md.stats;
  out.truncation = md.truncation;
  const sp::SpFlatEvaluation ev = sp::evaluate_sp_laws(
      sc.sp_decomposition().quotient, md.by_quotient_node, max_atoms, ws,
      capture);
  out.is_series_parallel = ev.is_series_parallel;
  if (!ev.is_series_parallel) return out;
  out.truncation.accumulate(ev.stats.truncation);
  out.mean = ev.mean;
  return out;
}

HierDodinBound evaluate_dodin_hier(const scenario::Scenario& sc,
                                   std::size_t max_atoms, Workspace& ws,
                                   prob::DiscreteDistribution* capture) {
  const ModuleDists md = build_module_distributions(sc, max_atoms);
  HierDodinBound out;
  out.stats = md.stats;
  out.truncation = md.truncation;
  const sp::DodinFlatResult dr =
      sp::dodin_laws(sc.sp_decomposition().quotient, md.by_quotient_node,
                     {.max_atoms = max_atoms}, ws, capture);
  out.truncation.accumulate(dr.truncation);
  out.duplications = dr.duplications;
  out.mean = dr.mean;
  return out;
}

HierMcResult evaluate_mc_hier(const scenario::Scenario& sc,
                              std::uint64_t trials, std::uint64_t seed,
                              std::size_t threads, std::size_t max_atoms) {
  if (trials == 0) throw std::invalid_argument("mc.hier: trials must be >= 1");
  const ModuleDists md = build_module_distributions(sc, max_atoms);
  const SpDecomposition& d = sc.sp_decomposition();
  const graph::CsrDag qcsr(d.quotient);
  const std::size_t qn = d.quotient.task_count();
  std::vector<const prob::DiscreteDistribution*> by_pos(qn);
  for (std::uint32_t pos = 0; pos < qn; ++pos) {
    by_pos[pos] = &md.by_quotient_node[qcsr.original_id(pos)];
  }

  // Same determinism discipline as mc/engine.cpp: a fixed 128-way chunk
  // partition of the trial range, one counter-based RNG stream per
  // trial, and a serial chunk-order fold of the accumulators — the
  // worker count never touches the arithmetic.
  constexpr std::uint64_t kEngineChunks = 128;
  const std::size_t chunks =
      static_cast<std::size_t>(std::min<std::uint64_t>(kEngineChunks, trials));
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
    std::vector<double> finish(qn);
    for (std::uint64_t t = begin; t < end; ++t) {
      prob::McRng rng(seed, t);
      double makespan = 0.0;
      // Draw in position order — one quantile per quotient node — then
      // the finish-time DP over the quotient CSR.
      for (std::uint32_t pos = 0; pos < qn; ++pos) {
        const double dur = by_pos[pos]->quantile(rng.uniform_positive());
        double start = 0.0;
        for (const std::uint32_t u : qcsr.preds(pos)) {
          if (finish[u] > start) start = finish[u];
        }
        const double f = start + dur;
        finish[pos] = f;
        if (f > makespan) makespan = f;
      }
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
  Memo& mm = memo();
  const std::lock_guard<std::mutex> lock(mm.mu);
  return MemoStats{mm.hits, mm.misses, mm.map.size()};
}

void memo_clear() {
  Memo& mm = memo();
  const std::lock_guard<std::mutex> lock(mm.mu);
  mm.map.clear();
  mm.hits = 0;
  mm.misses = 0;
}

}  // namespace expmk::exp::hier
