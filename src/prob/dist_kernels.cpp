#include "prob/dist_kernels.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <tuple>
#include <utility>

#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
#define EXPMK_X86_ASM 1
#endif

namespace expmk::prob::dist_kernels {

// Every kernel here is the one definition of its operation: the
// evaluators call these directly, and the test-side reference arithmetic
// (tests/dist_ops.cpp) wraps the same kernels, so any change below moves
// the library and its references together.
//
// Every stage has one implementation on every platform (no runtime
// dispatch). Kernel scratch comes from the caller (no hidden per-thread
// arenas), so exp::Workspace accounts for and frees it.

namespace {

// ---------------------------------------------------------------------------
// Outer product: one run per SMALL-side atom, each run streaming the
// whole big side, so the run count is small.size() and the bottom-up
// merge below does ceil(log2(small.size())) passes — a pipeline convolve
// against a 2-atom task law merges in ONE pass. Runs are ascending by
// construction (the big side is canonical, adding a constant is
// monotone).

EXPMK_NOALLOC void outer_product(std::span<const Atom> small,
                                 std::span<const Atom> big, Atom* out) {
  std::size_t k = 0;
  for (const Atom& as : small) {
    const double sv = as.value;
    const double sp = as.prob;
    for (const Atom& ab : big) {
      out[k].value = ab.value + sv;
      out[k].prob = ab.prob * sp;
      ++k;
    }
  }
}

// ---------------------------------------------------------------------------
// The run-merge engine. A single two-run merge is latency-bound: each
// step is a ~11-cycle chain (load head -> compare -> pointer bump -> next
// load), so one merge can't beat ~11 cycles per output no matter the ALU
// width. The engine instead interleaves kMergeLanes INDEPENDENT merges in
// one loop — their chains overlap and the core runs at throughput, not
// latency. Independent work always exists: early bottom-up passes have
// many run pairs, and the last passes (few pairs) are split into
// co-sorted segments by merge-path partitioning.
//
// The merge is STABLE — on equal values the earlier (A-side) run wins —
// and compares values only, so a step moves one 16-byte Atom with a
// single paired load/store. Stability plus the fixed big-major run layout
// makes the output deterministic: jobs write disjoint destinations, so
// the order the lanes take them in never changes a bit.

constexpr int kMergeLanes = 4;

// Passes with fewer pairs than lanes are only worth splitting when the
// pass itself is big enough to amortize the binary searches. The
// threshold is low on purpose: the analytic pipeline's dominant op is a
// capped-support convolve against a 2-atom task law (one merge pass, ONE
// run pair), so even a 128-atom pass gains ~1.7x from running its
// merge-path segments on all lanes instead of one sequential merge.
constexpr std::size_t kSplitMinTotal = 64;

struct MergeJob {
  const Atom* a;
  std::size_t na;
  const Atom* b;
  std::size_t nb;
  Atom* d;
};

struct Lane {
  const Atom* a;
  const Atom* ae;
  const Atom* b;
  const Atom* be;
  Atom* d;
};

EXPMK_NOALLOC inline void load_lane(Lane& ln, const MergeJob& j) {
  ln = {j.a, j.a + j.na, j.b, j.b + j.nb, j.d};
}

// One merge step. The winning side is picked by POINTER MASK arithmetic,
// not a ternary: on random merge data the take-A outcome is a coin flip,
// and compilers if-convert a ternary back into a data branch that
// mispredicts every other step — flushing all interleaved lanes with it.
// The mask form is pure ALU and cannot be branched. On x86 the mask is
// materialized straight from the compare's carry flag (ucomisd + sbb,
// which also treats a NaN as take-B exactly like the portable `<=`);
// elsewhere the portable expression computes the identical mask — the
// fallback differs in speed only, never in bits.
EXPMK_NOALLOC inline void step_one(const Atom*& a, const Atom*& b, Atom*& d) {
  const std::uintptr_t ua = reinterpret_cast<std::uintptr_t>(a);
  const std::uintptr_t ub = reinterpret_cast<std::uintptr_t>(b);
  std::uintptr_t take_b;  // all-ones iff b->value < a->value (stable: A
                          // wins value ties)
#if EXPMK_X86_ASM
  asm("ucomisd %[va], %[vb]\n\t"  // CF := b->value < a->value (or NaN)
      "sbbq %[m], %[m]"
      : [m] "=r"(take_b)
      : [va] "x"(a->value), [vb] "x"(b->value)
      : "cc");
#else
  take_b = -static_cast<std::uintptr_t>(!(a->value <= b->value));
#endif
  *d++ = *reinterpret_cast<const Atom*>(ua ^ ((ua ^ ub) & take_b));
  const std::uintptr_t bump_b = sizeof(Atom) & take_b;
  b = reinterpret_cast<const Atom*>(ub + bump_b);
  a = reinterpret_cast<const Atom*>(ua + (sizeof(Atom) ^ bump_b));
}

EXPMK_NOALLOC void copy_tail(Lane& ln) {
  const std::size_t ra = static_cast<std::size_t>(ln.ae - ln.a);
  if (ra > 0) {
    std::memcpy(ln.d, ln.a, ra * sizeof(Atom));
    ln.d += ra;
    ln.a = ln.ae;
  }
  const std::size_t rb = static_cast<std::size_t>(ln.be - ln.b);
  if (rb > 0) {
    std::memcpy(ln.d, ln.b, rb * sizeof(Atom));
    ln.d += rb;
    ln.b = ln.be;
  }
}

EXPMK_NOALLOC void finish_merge(Lane& ln) {
  while (ln.a < ln.ae && ln.b < ln.be) step_one(ln.a, ln.b, ln.d);
  copy_tail(ln);
}

// The hot batch: `steps` interleaved steps on kMergeLanes lanes, no
// bounds checks (the caller proved every lane has at least `steps` on
// both sides). Lane state is hoisted into local arrays whose indices are
// all unrolled constants, so scalar replacement keeps the live pointers
// in registers across the loop.
EXPMK_NOALLOC void run_batch(Lane* lanes, std::size_t steps) {
  constexpr int K = kMergeLanes;
  const Atom* a[K];
  const Atom* b[K];
  Atom* d[K];
  for (int l = 0; l < K; ++l) {
    a[l] = lanes[l].a;
    b[l] = lanes[l].b;
    d[l] = lanes[l].d;
  }
  for (std::size_t s = 0; s < steps; ++s) {
#pragma GCC unroll 16
    for (int l = 0; l < K; ++l) step_one(a[l], b[l], d[l]);
  }
  for (int l = 0; l < K; ++l) {
    lanes[l].a = a[l];
    lanes[l].b = b[l];
    lanes[l].d = d[l];
  }
}

// Merge-path partition: the (ia, ib) with ia + ib = q such that the
// stable merge of A[0..ia) with B[0..ib) is exactly the first q outputs
// of the full stable merge. That is the smallest ia with
// B[ib-1].value < A[ia].value (A would otherwise have been taken first);
// the predicate is monotone in ia, so binary search. Bounds keep every
// probe in range: ia < hi <= na and 1 <= ib = q - ia <= nb.
EXPMK_NOALLOC std::pair<std::size_t, std::size_t> merge_path_split(const Atom* a,
                                                     std::size_t na,
                                                     const Atom* b,
                                                     std::size_t nb,
                                                     std::size_t q) {
  std::size_t lo = q > nb ? q - nb : 0;
  std::size_t hi = std::min(q, na);
  while (lo < hi) {
    const std::size_t ia = lo + (hi - lo) / 2;
    const std::size_t ib = q - ia;
    if (b[ib - 1].value >= a[ia].value) {
      lo = ia + 1;
    } else {
      hi = ia;
    }
  }
  return {lo, q - lo};
}

// Splits one pair merge into nseg independent, contiguously-destined
// segment merges appended to segs[count..]; returns the new count.
// Segments with an empty side degenerate to copies.
EXPMK_NOALLOC std::size_t split_job(const MergeJob& j, std::size_t nseg,
                                    MergeJob* segs, std::size_t count) {
  const std::size_t total = j.na + j.nb;
  std::size_t q0 = 0, ia0 = 0, ib0 = 0;
  for (std::size_t s = 1; s <= nseg; ++s) {
    std::size_t ia1 = j.na, ib1 = j.nb;
    const std::size_t q1 = s == nseg ? total : total * s / nseg;
    if (s != nseg) {
      std::tie(ia1, ib1) = merge_path_split(j.a, j.na, j.b, j.nb, q1);
    }
    const std::size_t na = ia1 - ia0;
    const std::size_t nb = ib1 - ib0;
    Atom* d = j.d + q0;
    if (na == 0 || nb == 0) {
      const Atom* src = na == 0 ? j.b + ib0 : j.a + ia0;
      if (na + nb > 0) std::memcpy(d, src, (na + nb) * sizeof(Atom));
    } else {
      segs[count++] = {j.a + ia0, na, j.b + ib0, nb, d};
    }
    q0 = q1;
    ia0 = ia1;
    ib0 = ib1;
  }
  return count;
}

// The run pairs of one bottom-up pass, enumerated as the engine asks for
// them; a lone tail run is copied through on the way.
struct PassPairs {
  const Atom* src;
  Atom* dst;
  std::size_t n;
  std::size_t run_len;
  std::size_t pos = 0;

  EXPMK_NOALLOC bool next(MergeJob& j) {
    while (pos < n) {
      const std::size_t at = pos;
      const std::size_t mid = std::min(at + run_len, n);
      const std::size_t end = std::min(at + 2 * run_len, n);
      pos += 2 * run_len;
      if (mid < end) {
        j = {src + at, mid - at, src + mid, end - mid, dst + at};
        return true;
      }
      std::memcpy(dst + at, src + at, (end - at) * sizeof(Atom));
    }
    return false;
  }
};

// A fixed job list (the merge-path segments of a split pass).
struct JobList {
  const MergeJob* it;
  const MergeJob* end;

  EXPMK_NOALLOC bool next(MergeJob& j) {
    if (it == end) return false;
    j = *it++;
    return true;
  }
};

// Runs the jobs `jobs.next()` yields with kMergeLanes interleaved lanes.
// The batch loop takes steps = min over lanes of min(A-left, B-left), so
// the hot loop has no bounds checks at all; exhausted lanes copy their
// tail and refill from the source, and once jobs run out the stragglers
// drain one by one (with fewer jobs than lanes that is all there is).
template <class Jobs>
EXPMK_NOALLOC void merge_interleaved(Jobs& jobs) {
  constexpr int K = kMergeLanes;
  Lane lanes[K];
  bool live[K];
  int nlive = 0;
  MergeJob j{};
  for (int l = 0; l < K; ++l) {
    live[l] = jobs.next(j);
    if (live[l]) {
      load_lane(lanes[l], j);
      ++nlive;
    } else {
      lanes[l] = {nullptr, nullptr, nullptr, nullptr, nullptr};
    }
  }
  while (nlive == K) {
    std::size_t steps = static_cast<std::size_t>(-1);
    for (int l = 0; l < K; ++l) {
      const std::size_t ra = static_cast<std::size_t>(lanes[l].ae - lanes[l].a);
      const std::size_t rb = static_cast<std::size_t>(lanes[l].be - lanes[l].b);
      steps = std::min(steps, std::min(ra, rb));
    }
    run_batch(lanes, steps);
    for (int l = 0; l < K; ++l) {
      Lane& ln = lanes[l];
      if (ln.a < ln.ae && ln.b < ln.be) continue;
      copy_tail(ln);
      if (jobs.next(j)) {
        load_lane(ln, j);
      } else {
        live[l] = false;
        --nlive;
      }
    }
  }
  for (int l = 0; l < K; ++l) {
    if (live[l]) finish_merge(lanes[l]);
  }
}

// One bottom-up pass: pair up runs of run_len and merge the pairs on the
// interleaved engine — merge-path-segmented when there are fewer pairs
// than lanes. npairs < K pairs of ceil(K / npairs) segments each make at
// most K + npairs - 1 < 2K segments, so they fit a stack array.
EXPMK_NOALLOC void merge_pass(const Atom* src, Atom* dst, std::size_t n,
                              std::size_t run_len) {
  constexpr std::size_t K = kMergeLanes;
  const std::size_t npairs =
      n / (2 * run_len) + (n % (2 * run_len) > run_len ? 1 : 0);
  PassPairs pairs{src, dst, n, run_len};
  if (npairs == 0 || npairs >= K || n < kSplitMinTotal) {
    merge_interleaved(pairs);
    return;
  }
  MergeJob segs[2 * K];
  std::size_t nsegs = 0;
  const std::size_t nseg = (K + npairs - 1) / npairs;
  MergeJob j{};
  while (pairs.next(j)) nsegs = split_job(j, nseg, segs, nsegs);
  JobList seg_jobs{segs, segs + nsegs};
  merge_interleaved(seg_jobs);
}

// Bottom-up merge of sorted runs, ping-ponging between buf and alt.
// Returns the buffer holding the fully sorted result (either input).
EXPMK_NOALLOC Atom* merge_runs(Atom* buf, Atom* alt, std::size_t n, std::size_t run_len) {
  while (run_len < n) {
    merge_pass(buf, alt, n, run_len);
    std::swap(buf, alt);
    run_len *= 2;
  }
  return buf;
}

// ---------------------------------------------------------------------------
// The canonical reduction tail on a sorted atom list.

// consolidate()'s post-sort pass: drop non-positive masses and eps-merge
// adjacent values into the first atom's value, in sequential order (the
// accumulation into o[w-1] is a reduction). o may equal a (w <= t
// always) or be a distinct non-overlapping buffer.
EXPMK_NOALLOC std::size_t eps_merge_atoms(const Atom* a, std::size_t n, Atom* o) {
  std::size_t w = 0;
  for (std::size_t t = 0; t < n; ++t) {
    if (a[t].prob <= 0.0) continue;
    if (w > 0) {
      const double scale =
          std::max({std::fabs(o[w - 1].value), std::fabs(a[t].value), 1.0});
      if (a[t].value - o[w - 1].value <= kValueMergeEps * scale) {
        o[w - 1].prob += a[t].prob;
        continue;
      }
    }
    o[w] = a[t];
    ++w;
  }
  return w;
}

// The normalize total in one fixed 4-accumulator association. Four
// independent chains run at ~1 add/cycle instead of a sequential sum's
// 1 add per 4-cycle latency.
EXPMK_NOALLOC double atom_prob_sum(const Atom* a, std::size_t n) {
  double a0 = 0.0, a1 = 0.0, a2 = 0.0, a3 = 0.0;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    a0 += a[i].prob;
    a1 += a[i + 1].prob;
    a2 += a[i + 2].prob;
    a3 += a[i + 3].prob;
  }
  double total = (a0 + a1) + (a2 + a3);
  for (; i < n; ++i) total += a[i].prob;
  return total;
}

// from_atoms' renormalization in place: atom_prob_sum total, throw on
// non-positive mass (from_atoms' exact failure condition), then multiply
// every prob by ONE reciprocal r = 1 / total. The reciprocal replaces
// normalize()'s per-element divide (a ~4x throughput win: one divide
// total instead of n); the difference is at most 1 ulp per probability.
EXPMK_NOALLOC std::size_t finish_atoms(Atom* a, std::size_t n) {
  const double total = atom_prob_sum(a, n);
  if (n == 0 || total <= 0.0) {
    throw std::invalid_argument("from_atoms: no positive probability mass");
  }
  const double r = 1.0 / total;
  for (std::size_t i = 0; i < n; ++i) a[i].prob *= r;
  return n;
}

// ---------------------------------------------------------------------------
// The atom cap: grouping kernels and their certificates (see the header's
// coupling argument).

// True when a capped convolve of n products takes the binned path, that
// is n > kConvolveBinsPerAtom * max_atoms (written without the product,
// which could overflow for a huge budget).
EXPMK_NOALLOC constexpr bool binned(std::size_t n, std::size_t max_atoms) noexcept {
  constexpr std::size_t k = kConvolveBinsPerAtom;
  return max_atoms != 0 && (n / k > max_atoms || (n / k == max_atoms && n % k != 0));
}

// The group walk. Ranks each adjacent pair by its merge key, the squared
// value gap times the heavier atom's mass, and picks the excess =
// n - max_atoms cheapest pairs with one nth_element over a copy of the
// keys: every key below the k-th smallest value t is picked, and keys
// equal to t are picked left to right until exactly `excess` are. Each
// maximal run of picked pairs is one group, replaced (in place,
// ascending) by its weighted mean; a two-atom group computes the same
// mean and displacements as a pair merge. Why this key: ranked by the
// bare gap, a run of small gaps chains heavy atoms into one group (2.3x
// the envelope of the halving-pass merge kept in
// tests/dist_kernels_reference, on Cholesky k=10 at pfail 1e-3); ranked
// by gap times mass, runs of light atoms grow long and wide in a law's
// tails (up to 15% wider at pfail 0.3-0.5). Squaring the gap penalizes
// both; DESIGN.md lists the cells measured.
// Requires a[0..n) ascending and n > max_atoms >= 1; `keys` holds n - 1
// doubles. Adds the displacements to up/down and returns max_atoms.
EXPMK_NOALLOC std::size_t merge_groups(Atom* a, std::size_t n,
                                       std::size_t max_atoms, double& up,
                                       double& down, double* keys) {
  const auto key = [a](std::size_t i) {
    const double g = a[i + 1].value - a[i].value;
    return g * g * std::max(a[i].prob, a[i + 1].prob);
  };
  const std::size_t excess = n - max_atoms;
  for (std::size_t i = 0; i + 1 < n; ++i) keys[i] = key(i);
  std::nth_element(keys, keys + (excess - 1), keys + (n - 1));
  const double t = keys[excess - 1];
  // nth_element leaves keys[0, excess - 1) <= t and the rest >= t, so
  // the keys strictly below t are all in that prefix.
  std::size_t ties = excess;  // keys equal to t still to pick
  for (std::size_t i = 0; i + 1 < excess; ++i) ties -= keys[i] < t ? 1 : 0;

  std::size_t w = 0;
  std::size_t s = 0;
  while (s < n) {
    // The walk reads a[s..e+1] before it writes a[w], and w <= s, so the
    // group's atoms (and the keys it recomputes) are intact while it is
    // summed and certified.
    std::size_t e = s;
    while (e + 1 < n) {
      const double k = key(e);
      if (k < t) {
        ++e;
      } else if (k == t && ties > 0) {
        --ties;
        ++e;
      } else {
        break;
      }
    }
    if (e == s) {
      a[w++] = a[s++];
      continue;
    }
    double p = 0.0;
    double pv = 0.0;
    for (std::size_t k = s; k <= e; ++k) {
      p += a[k].prob;
      pv += a[k].value * a[k].prob;
    }
    const double v = pv / p;
    for (std::size_t k = s; k <= e; ++k) {
      const double d = v - a[k].value;
      if (d > 0.0) {
        up += a[k].prob * d;
      } else {
        down -= a[k].prob * d;
      }
    }
    a[w++] = {v, p};
    s = e + 1;
  }
  return w;
}

// The binned fold: sums the small x big outer product into `bins`
// equal-width value bins over [lo, hi], the sums' exact range. The bin
// index floor((v - lo) * bins / (hi - lo)) is monotone in v (every
// rounded step is), so the bins split the sorted products into
// value-contiguous groups without sorting them. Each non-empty bin
// becomes one atom at its weighted mean, left-aligned in `out` in
// ascending order; a second pass certifies every product's displacement
// to its bin's atom. `out` holds `bins` atoms. Returns the atom count.
EXPMK_NOALLOC std::size_t bin_products(std::span<const Atom> small,
                                       std::span<const Atom> big,
                                       std::size_t bins, Atom* out,
                                       double& up, double& down) {
  const double lo = small.front().value + big.front().value;
  const double hi = small.back().value + big.back().value;
  const double scale = static_cast<double>(bins) / (hi - lo);
  const auto bin_of = [&](double v) {
    return std::min(static_cast<std::size_t>((v - lo) * scale), bins - 1);
  };
  // Pass 1: mass and mass * value per bin, accumulated in each bin's
  // (prob, value) slots.
  std::fill_n(out, bins, Atom{0.0, 0.0});
  for (const Atom& as : small) {
    for (const Atom& ab : big) {
      const double v = ab.value + as.value;
      const double p = ab.prob * as.prob;
      Atom& b = out[bin_of(v)];
      b.value += p * v;
      b.prob += p;
    }
  }
  for (std::size_t b = 0; b < bins; ++b) {
    if (out[b].prob > 0.0) out[b].value /= out[b].prob;
  }
  // Pass 2: each product's displacement to its bin's mean, in the same
  // product order.
  for (const Atom& as : small) {
    for (const Atom& ab : big) {
      const double v = ab.value + as.value;
      const double p = ab.prob * as.prob;
      const double d = out[bin_of(v)].value - v;
      up += p * std::max(d, 0.0);
      down += p * std::max(-d, 0.0);
    }
  }
  std::size_t k = 0;
  for (std::size_t b = 0; b < bins; ++b) {
    if (out[b].prob > 0.0) out[k++] = out[b];
  }
  return k;
}

}  // namespace

EXPMK_NOALLOC std::size_t consolidate(std::span<Atom> atoms) {
  // erase_if(prob <= 0), order-preserving.
  std::size_t n = 0;
  for (const Atom& at : atoms) {
    if (at.prob > 0.0) atoms[n++] = at;
  }
  std::sort(atoms.begin(), atoms.begin() + static_cast<std::ptrdiff_t>(n),
            [](const Atom& x, const Atom& y) { return x.value < y.value; });
  // Adjacent eps-merge into the first atom's value (w <= t always, so in
  // place is safe).
  std::size_t w = 0;
  for (std::size_t t = 0; t < n; ++t) {
    if (w > 0) {
      const double scale = std::max(
          {std::fabs(atoms[w - 1].value), std::fabs(atoms[t].value), 1.0});
      if (atoms[t].value - atoms[w - 1].value <= kValueMergeEps * scale) {
        atoms[w - 1].prob += atoms[t].prob;
        continue;
      }
    }
    atoms[w++] = atoms[t];
  }
  return w;
}

EXPMK_NOALLOC void normalize(std::span<Atom> atoms) {
  double total = 0.0;
  for (const Atom& at : atoms) total += at.prob;
  if (atoms.empty() || total <= 0.0) {
    throw std::invalid_argument("from_atoms: no positive probability mass");
  }
  for (Atom& at : atoms) at.prob /= total;
}

EXPMK_NOALLOC std::size_t canonicalize(std::span<Atom> atoms) {
  const std::size_t n = consolidate(atoms);
  normalize(atoms.subspan(0, n));
  return n;
}

// Fixed 4-accumulator association like atom_prob_sum: four independent
// multiply-add chains instead of one 4-cycle-latency serial sum.
// DiscreteDistribution::mean forwards here, so a boundary value and the
// arena slice it was exported from report the same mean bit for bit.
EXPMK_NOALLOC double mean(std::span<const Atom> atoms) noexcept {
  const Atom* a = atoms.data();
  const std::size_t n = atoms.size();
  double a0 = 0.0, a1 = 0.0, a2 = 0.0, a3 = 0.0;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    a0 += a[i].value * a[i].prob;
    a1 += a[i + 1].value * a[i + 1].prob;
    a2 += a[i + 2].value * a[i + 2].prob;
    a3 += a[i + 3].value * a[i + 3].prob;
  }
  double m = (a0 + a1) + (a2 + a3);
  for (; i < n; ++i) m += a[i].value * a[i].prob;
  return m;
}

EXPMK_NOALLOC double quantile(std::span<const Atom> atoms, double q) {
  if (q <= 0.0 || q > 1.0) {
    throw std::invalid_argument("quantile: q must be in (0,1]");
  }
  double acc = 0.0;
  for (const Atom& at : atoms) {
    acc += at.prob;
    if (acc >= q - 1e-15) return at.value;
  }
  return atoms.back().value;
}

EXPMK_NOALLOC std::size_t point(double value, std::span<Atom> out) {
  out[0] = {value, 1.0};
  return 1;
}

EXPMK_NOALLOC std::size_t two_state(double a, double p_success, std::span<Atom> out) {
  if (p_success >= 1.0) return point(a, out);
  if (p_success <= 0.0) return point(2.0 * a, out);
  out[0] = {a, p_success};
  out[1] = {2.0 * a, 1.0 - p_success};
  return 2;
}

EXPMK_NOALLOC void shift(std::span<Atom> atoms, double c) noexcept {
  for (Atom& at : atoms) at.value += c;
}

ConvolveScratch convolve_scratch(std::size_t nx, std::size_t ny,
                                 std::size_t max_atoms) noexcept {
  const std::size_t n = nx * ny;
  if (binned(n, max_atoms)) {
    const std::size_t bins = kConvolveBinsPerAtom * max_atoms;
    return {bins, 0, bins - 1};
  }
  const bool capped = max_atoms != 0 && n > max_atoms;
  return {n, n, capped ? n - 1 : 0};
}

EXPMK_NOALLOC std::size_t convolve(std::span<const Atom> x, std::span<const Atom> y,
                                   std::size_t max_atoms, TruncationCert& cert,
                                   std::span<Atom> out,
                                   std::span<Atom> atom_scratch,
                                   std::span<double> gap_scratch) {
  const std::size_t n = x.size() * y.size();
  if (n == 0) return canonicalize(out.subspan(0, 0));  // from_atoms' throw

  // Orient the runs along the BIGGER input: small.size() pre-sorted runs
  // of big.size() atoms each, so the bottom-up merge does
  // ceil(log2(small.size())) passes — the pipeline's dominant n-by-2
  // convolves against two_state laws merge in a single pass. IEEE + and *
  // are commutative, so the atom values themselves don't depend on which
  // argument plays which role.
  std::span<const Atom> big = x;
  std::span<const Atom> small = y;
  if (big.size() < small.size()) std::swap(big, small);

  if (!binned(n, max_atoms)) {
    // The fill goes to `out` and the merge passes ping-pong between it
    // and the scratch span. The runs are pre-sorted, so canonicalize's
    // std::sort collapses into a stable bottom-up merge; then
    // consolidate's drop + eps-merge (from whichever buffer holds the
    // sorted list, into `out`) and from_atoms' renormalize complete the
    // canonical reduction, and truncate applies the cap.
    Atom* buf = out.data();
    outer_product(small, big, buf);
    const Atom* sorted = merge_runs(buf, atom_scratch.data(), n, big.size());
    const std::size_t w = eps_merge_atoms(sorted, n, out.data());
    const std::size_t m = finish_atoms(out.data(), w);
    return truncate(out.first(m), max_atoms, cert, gap_scratch);
  }

  TruncationCert local;
  std::size_t m = bin_products(small, big, kConvolveBinsPerAtom * max_atoms,
                               out.data(), local.up, local.down);
  if (m > max_atoms) {
    m = merge_groups(out.data(), m, max_atoms, local.up, local.down,
                     gap_scratch.data());
  }
  local.events = 1;
  local.merges = n - m;
  cert.accumulate(local);
  // The bins and groups are ascending already: eps-merge + renormalize
  // complete the canonical form.
  return finish_atoms(out.data(), eps_merge_atoms(out.data(), m, out.data()));
}

EXPMK_NOALLOC std::size_t max_of(std::span<const Atom> x, std::span<const Atom> y,
                                 std::span<Atom> out) {
  // One pass over the support union, ascending. Both inputs are canonical
  // (strictly ascending), so taking the smaller head (x on a value tie)
  // and then consuming every atom at or below it on both sides visits
  // each distinct value once, in sort(concat) + unique order. The prefix
  // CDFs accumulate in sequential order; F_max(v) = F_x(v) * F_y(v), and
  // an atom is emitted wherever F_max steps up (rounding a monotone real
  // product is monotone, so the step is >= 0 and "step > 0" is spec's
  // f > prev_cdf). At most x.size() + y.size() atoms are written, and
  // the support is strictly ascending, so canonicalize's sort is the
  // identity permutation here: eps-merge + renormalize complete it.
  std::size_t ix = 0, iy = 0, m = 0;
  double fxa = 0.0, fya = 0.0, prev = 0.0;
  bool first = true;
  while (ix < x.size() || iy < y.size()) {
    const bool take_x =
        iy >= y.size() || (ix < x.size() && x[ix].value <= y[iy].value);
    const double v = take_x ? x[ix].value : y[iy].value;
    while (ix < x.size() && x[ix].value <= v) fxa += x[ix++].prob;
    while (iy < y.size() && y[iy].value <= v) fya += y[iy++].prob;
    const double f = fxa * fya;
    const double d = first ? f : f - prev;
    first = false;
    prev = f;
    if (d > 0.0) {
      out[m].value = v;
      out[m].prob = d;
      ++m;
    }
  }
  const std::size_t w = eps_merge_atoms(out.data(), m, out.data());
  return finish_atoms(out.data(), w);
}

EXPMK_NOALLOC std::size_t truncate(std::span<Atom> atoms, std::size_t max_atoms,
                     TruncationCert& cert, std::span<double> gap_scratch) {
  const std::size_t n = atoms.size();
  if (max_atoms == 0 || n <= max_atoms) return n;
  TruncationCert local;
  const std::size_t m = merge_groups(atoms.data(), n, max_atoms, local.up,
                                     local.down, gap_scratch.data());
  local.events = 1;
  local.merges = n - m;
  cert.accumulate(local);
  // The walk keeps the list ascending, so canonicalize's sort is the
  // identity: merged values may still land within the eps window, and
  // the masses are renormalized.
  return finish_atoms(atoms.data(), eps_merge_atoms(atoms.data(), m, atoms.data()));
}

}  // namespace expmk::prob::dist_kernels
