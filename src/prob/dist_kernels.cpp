#include "prob/dist_kernels.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <tuple>
#include <utility>
#include <vector>

#include "util/simd.hpp"

#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
#define EXPMK_X86_SIMD 1
#include <immintrin.h>
#endif

namespace expmk::prob::dist_kernels {

// Every kernel here is the one definition of its operation: the
// evaluators call these directly, and the test-side reference arithmetic
// (tests/dist_ops.cpp) wraps the same kernels, so any change below moves
// the library and its references together.
//
// convolve and max_of run with a runtime-dispatched backend (util::simd):
// the scalar loops are the executable spec and the AVX2 loops must
// reproduce them bit for bit. Two rules make that possible without
// pinning the vector unit to scalar operation order:
//   * only elementwise stages are vectorized (the outer-product add/mul,
//     the product-CDF multiply/difference, the normalize reciprocal
//     multiply, the eps-merge pass-through screen) — per-lane identical
//     to the scalar loop by IEEE754;
//   * the ordering stage (the run merge that replaces canonicalize's
//     std::sort) is ONE branchless engine shared verbatim by both
//     backends, so its output — including the order of exact value ties,
//     which it resolves stably (earlier run first) — cannot differ
//     between them.
// Reduction order is never vectorized: probability sums (the eps-merge
// accumulation, the CDF prefix sums) stay in the scalar spec's
// sequential association on both backends, and the normalize total uses
// one fixed 4-accumulator association (atom_prob_sum) on both.

namespace {

namespace simd = ::expmk::util::simd;

// ---------------------------------------------------------------------------
// Kernel scratch. convolve ping-pongs its merge passes between two
// thread-local atom buffers and max_of builds its CDF planes in a
// thread-local double buffer (the same pattern as mc/trial.cpp's adapter
// scratch): call-site signatures keep taking Atom spans, and after the
// arenas reach their high-water mark the kernels are allocation-free,
// which preserves the steady-state zero-allocation pins in
// test_workspace.cpp.

thread_local std::vector<Atom> tl_atom_arena;
thread_local std::vector<double> tl_plane_arena;

EXPMK_NOALLOC Atom* atom_arena(std::size_t atoms) {
  // NOLINTNEXTLINE(expmk-no-alloc-kernel): thread-local high-water arena — grows to the peak once, steady state reuses it (pinned by test_workspace.cpp)
  if (tl_atom_arena.size() < atoms) tl_atom_arena.resize(atoms);
  return tl_atom_arena.data();
}

EXPMK_NOALLOC double* plane_arena(std::size_t doubles) {
  // NOLINTNEXTLINE(expmk-no-alloc-kernel): thread-local high-water arena — grows to the peak once, steady state reuses it (pinned by test_workspace.cpp)
  if (tl_plane_arena.size() < doubles) tl_plane_arena.resize(doubles);
  return tl_plane_arena.data();
}

EXPMK_NOALLOC bool use_avx2() { return simd::active() == simd::Backend::Avx2; }

// ---------------------------------------------------------------------------
// Outer product: one run per SMALL-side atom, each run streaming the
// whole big side, so the run count is small.size() and the bottom-up
// merge below does ceil(log2(small.size())) passes — a pipeline convolve
// against a 2-atom task law merges in ONE pass. Runs are ascending by
// construction (the big side is canonical, adding a constant is
// monotone).

EXPMK_NOALLOC void outer_product_scalar(std::span<const Atom> small,
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
// makes the output deterministic, and both backends share this exact
// engine, so cross-backend bit-identity needs no tie rule beyond it.

#ifndef EXPMK_MERGE_LANES
#define EXPMK_MERGE_LANES 4
#endif
constexpr int kMergeLanes = EXPMK_MERGE_LANES;

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

thread_local std::vector<MergeJob> tl_merge_jobs;

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
#if EXPMK_X86_SIMD
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
// segment merges. Segments with an empty side degenerate to copies.
EXPMK_NOALLOC void split_job(const MergeJob& j, std::size_t nseg,
               std::vector<MergeJob>& out) {
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
      // NOLINTNEXTLINE(expmk-no-alloc-kernel): thread-local job list keeps its high-water capacity across clear(); steady state does not grow
      out.push_back({j.a + ia0, na, j.b + ib0, nb, d});
    }
    q0 = q1;
    ia0 = ia1;
    ib0 = ib1;
  }
}

// Runs a job list with kMergeLanes interleaved lanes. The batch loop
// takes steps = min over lanes of min(A-left, B-left), so the hot loop
// has no bounds checks at all; exhausted lanes copy their tail and refill
// from the job list, and once jobs run out the stragglers drain one by
// one. Tiny job lists skip the interleave (nothing to overlap with).
EXPMK_NOALLOC void merge_jobs_interleaved(const MergeJob* jobs, std::size_t njobs) {
  constexpr int K = kMergeLanes;
  if (njobs < 2) {
    for (std::size_t j = 0; j < njobs; ++j) {
      Lane ln;
      load_lane(ln, jobs[j]);
      finish_merge(ln);
    }
    return;
  }
  Lane lanes[K];
  bool live[K];
  std::size_t next = 0;
  int nlive = 0;
  for (int l = 0; l < K; ++l) {
    live[l] = next < njobs;
    if (live[l]) {
      load_lane(lanes[l], jobs[next++]);
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
      if (next < njobs) {
        load_lane(ln, jobs[next++]);
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

// One bottom-up pass: pair up runs of run_len, memcpy the lone tail run,
// and feed the pairs — merge-path-segmented when there are fewer pairs
// than lanes — to the interleaved engine.
EXPMK_NOALLOC void merge_pass(const Atom* src, Atom* dst, std::size_t n,
                std::size_t run_len) {
  auto& jobs = tl_merge_jobs;
  jobs.clear();
  for (std::size_t pos = 0; pos < n; pos += 2 * run_len) {
    const std::size_t mid = std::min(pos + run_len, n);
    const std::size_t end = std::min(pos + 2 * run_len, n);
    if (mid >= end) {
      std::memcpy(dst + pos, src + pos, (end - pos) * sizeof(Atom));
    } else {
      // NOLINTNEXTLINE(expmk-no-alloc-kernel): thread-local job list keeps its high-water capacity across clear(); steady state does not grow
      jobs.push_back({src + pos, mid - pos, src + mid, end - mid, dst + pos});
    }
  }
  const std::size_t klanes = static_cast<std::size_t>(kMergeLanes);
  if (!jobs.empty() && jobs.size() < klanes && n >= kSplitMinTotal) {
    MergeJob pairs[kMergeLanes];
    const std::size_t npairs = jobs.size();
    std::copy(jobs.begin(), jobs.end(), pairs);
    jobs.clear();
    const std::size_t nseg = (klanes + npairs - 1) / npairs;
    for (std::size_t p = 0; p < npairs; ++p) {
      split_job(pairs[p], nseg, jobs);
    }
  }
  merge_jobs_interleaved(jobs.data(), jobs.size());
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
// adjacent values into the first atom's value. Sequential spec order on
// both backends (the accumulation into o[w-1] is a reduction). o may
// equal a (w <= t always) or be a distinct non-overlapping buffer.
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

// The normalize total in one fixed 4-accumulator association — plain C
// compiled once and called by both backends, so cross-backend
// bit-identity is automatic. Four independent chains run at ~1 add/cycle
// instead of the sequential spec sum's 1 add per 4-cycle latency.
// (One-time ulp-level golden re-baseline, same event as the stable-merge
// tie order — see the file comment.)
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

// ---------------------------------------------------------------------------
// AVX2 stages. Guarded by the compile-time gate; selected per call via
// util::simd::active(). No FMA anywhere: -ffp-contract=off is a
// library-wide contract and explicit intrinsics never contract.

#if EXPMK_X86_SIMD

// The interleaved-pair outer product: a run of (v, p) pairs is
// (pair + [sv, 0]) * [1, sp] lane-wise — value (v + sv) * 1.0 and prob
// (p + 0.0) * sp are bit-identical to the scalar v + sv and p * sp
// (multiplying by 1.0 is an exact identity, and adding 0.0 is exact for
// the strictly positive probs of a canonical list).
EXPMK_NOALLOC __attribute__((target("avx2"))) void outer_product_avx2(
    std::span<const Atom> small, std::span<const Atom> big, Atom* out) {
  static_assert(sizeof(Atom) == 2 * sizeof(double));
  const double* src = reinterpret_cast<const double*>(big.data());
  double* dst = reinterpret_cast<double*>(out);
  const std::size_t m = 2 * big.size();
  for (const Atom& as : small) {
    const __m256d add = _mm256_setr_pd(as.value, 0.0, as.value, 0.0);
    const __m256d mul = _mm256_setr_pd(1.0, as.prob, 1.0, as.prob);
    std::size_t j = 0;
    for (; j + 4 <= m; j += 4) {
      _mm256_storeu_pd(
          dst + j,
          _mm256_mul_pd(_mm256_add_pd(_mm256_loadu_pd(src + j), add), mul));
    }
    for (; j < m; j += 2) {
      dst[j] = src[j] + as.value;
      dst[j + 1] = src[j + 1] * as.prob;
    }
    dst += m;
  }
}

// The renormalize multiply on interleaved pairs: value * 1.0 is an exact
// identity, prob * r matches the scalar loop per lane (both backends
// multiply by the same shared reciprocal — see finish_atoms).
EXPMK_NOALLOC __attribute__((target("avx2"))) void scale_probs_avx2(Atom* atoms,
                                                      std::size_t n, double r) {
  static_assert(sizeof(Atom) == 2 * sizeof(double));
  double* d = reinterpret_cast<double*>(atoms);
  const std::size_t m = 2 * n;
  const __m256d t = _mm256_setr_pd(1.0, r, 1.0, r);
  std::size_t i = 0;
  for (; i + 4 <= m; i += 4) {
    _mm256_storeu_pd(d + i, _mm256_mul_pd(_mm256_loadu_pd(d + i), t));
  }
  for (; i < m; i += 2) d[i + 1] *= r;
}

// eps_merge_atoms with a vectorized pass-through screen: a 4-atom block
// whose probs are all positive and whose adjacent gaps (including the
// boundary gap against the last written atom) all clear the eps window is
// exactly a block the scalar loop would copy verbatim — so copy it as two
// ymm moves. The screen evaluates the SPEC's predicates elementwise
// (same subtract / abs / max / multiply / compare per lane), so it can
// never disagree with the scalar loop; any hit falls back to the scalar
// spec code for one element. Bit-identity across backends is therefore
// structural, not numerical luck. In-place (o == a) stays safe: a block's
// loads complete before its stores, and w <= t always.
EXPMK_NOALLOC __attribute__((target("avx2"))) std::size_t eps_merge_atoms_avx2(
    const Atom* a, std::size_t n, Atom* o) {
  static_assert(sizeof(Atom) == 2 * sizeof(double));
  const __m256d eps = _mm256_set1_pd(kValueMergeEps);
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d zero = _mm256_setzero_pd();
  const __m256d absmask =
      _mm256_castsi256_pd(_mm256_set1_epi64x(0x7fffffffffffffffLL));
  const double* src = reinterpret_cast<const double*>(a);
  double* dst = reinterpret_cast<double*>(o);
  std::size_t w = 0;
  std::size_t t = 0;
  while (t < n) {
    // The vector boundary lane compares against a[t-1]; that equals the
    // spec's o[w-1] only while the previous element passed through
    // unmerged, which the bit-compare establishes. (w > 0 implies t >= 1,
    // so the prev-shifted loads below stay in range.)
    if (t + 4 <= n && w > 0 && dst[2 * w - 2] == src[2 * t - 2]) {
      const __m256d c0 = _mm256_loadu_pd(src + 2 * t);
      const __m256d c1 = _mm256_loadu_pd(src + 2 * t + 4);
      const __m256d p0 = _mm256_loadu_pd(src + 2 * t - 2);
      const __m256d p1 = _mm256_loadu_pd(src + 2 * t + 2);
      // unpacklo/hi interleave lanes identically for cur/prev/probs, so
      // the per-lane predicates line up (lane order itself is irrelevant:
      // only the any-hit movemask is used).
      const __m256d cv = _mm256_unpacklo_pd(c0, c1);
      const __m256d cp = _mm256_unpackhi_pd(c0, c1);
      const __m256d pv = _mm256_unpacklo_pd(p0, p1);
      const __m256d scale = _mm256_max_pd(
          _mm256_max_pd(_mm256_and_pd(pv, absmask), _mm256_and_pd(cv, absmask)),
          one);
      const __m256d merge = _mm256_cmp_pd(
          _mm256_sub_pd(cv, pv), _mm256_mul_pd(eps, scale), _CMP_LE_OQ);
      const __m256d drop = _mm256_cmp_pd(cp, zero, _CMP_LE_OQ);
      if (_mm256_movemask_pd(_mm256_or_pd(merge, drop)) == 0) {
        _mm256_storeu_pd(dst + 2 * w, c0);
        _mm256_storeu_pd(dst + 2 * w + 4, c1);
        w += 4;
        t += 4;
        continue;
      }
    }
    // One element of the scalar spec (identical code to eps_merge_atoms).
    const Atom at = a[t];
    ++t;
    if (at.prob <= 0.0) continue;
    if (w > 0) {
      const double scale =
          std::max({std::fabs(o[w - 1].value), std::fabs(at.value), 1.0});
      if (at.value - o[w - 1].value <= kValueMergeEps * scale) {
        o[w - 1].prob += at.prob;
        continue;
      }
    }
    o[w] = at;
    ++w;
  }
  return w;
}

EXPMK_NOALLOC __attribute__((target("avx2"))) void cdf_product_diff_avx2(
    const double* fx, const double* fy, std::size_t n, double* f, double* d) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(
        f + i, _mm256_mul_pd(_mm256_loadu_pd(fx + i), _mm256_loadu_pd(fy + i)));
  }
  for (; i < n; ++i) f[i] = fx[i] * fy[i];
  if (n == 0) return;
  d[0] = f[0];
  i = 1;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(
        d + i, _mm256_sub_pd(_mm256_loadu_pd(f + i), _mm256_loadu_pd(f + i - 1)));
  }
  for (; i < n; ++i) d[i] = f[i] - f[i - 1];
}

#endif  // EXPMK_X86_SIMD

EXPMK_NOALLOC void cdf_product_diff_scalar(const double* fx, const double* fy, std::size_t n,
                             double* f, double* d) {
  for (std::size_t i = 0; i < n; ++i) f[i] = fx[i] * fy[i];
  if (n == 0) return;
  d[0] = f[0];
  for (std::size_t i = 1; i < n; ++i) d[i] = f[i] - f[i - 1];
}

// from_atoms' renormalization in place: atom_prob_sum total (fixed
// association, shared by both backends), throw on non-positive mass
// (from_atoms' exact failure condition), then multiply every prob by ONE
// shared reciprocal — both backends compute the same r = 1.0 / total and
// the same per-element prob * r, so they stay bit-identical. The
// reciprocal replaces normalize()'s per-element divide (a ~4x throughput
// win: one divide total instead of n); the difference is at most 1 ulp
// per probability and is part of the same one-time golden re-baseline as
// the stable-merge tie order.
EXPMK_NOALLOC std::size_t finish_atoms(Atom* a, std::size_t n, bool avx2) {
  const double total = atom_prob_sum(a, n);
  if (n == 0 || total <= 0.0) {
    throw std::invalid_argument("from_atoms: no positive probability mass");
  }
  const double r = 1.0 / total;
#if EXPMK_X86_SIMD
  if (avx2) {
    scale_probs_avx2(a, n, r);
    return n;
  }
#else
  (void)avx2;
#endif
  for (std::size_t i = 0; i < n; ++i) a[i].prob *= r;
  return n;
}

// Dispatched consolidate tail: identical output either way (the AVX2
// variant only fast-paths blocks the scalar spec would pass through).
EXPMK_NOALLOC std::size_t eps_merge_dispatch(const Atom* a, std::size_t n, Atom* o,
                               bool avx2) {
#if EXPMK_X86_SIMD
  if (avx2) return eps_merge_atoms_avx2(a, n, o);
#else
  (void)avx2;
#endif
  return eps_merge_atoms(a, n, o);
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

EXPMK_NOALLOC std::size_t convolve(std::span<const Atom> x, std::span<const Atom> y,
                     std::span<Atom> out) {
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
  const std::size_t run_len = big.size();

  const bool avx2 = use_avx2();
  Atom* buf = atom_arena(2 * n);
  Atom* alt = buf + n;

#if EXPMK_X86_SIMD
  if (avx2) {
    outer_product_avx2(small, big, buf);
  } else {
    outer_product_scalar(small, big, buf);
  }
#else
  outer_product_scalar(small, big, buf);
#endif

  // The runs are pre-sorted, so canonicalize's std::sort collapses into a
  // stable bottom-up merge; then consolidate's drop + eps-merge and
  // from_atoms' renormalize complete the canonical reduction.
  const Atom* sorted = merge_runs(buf, alt, n, run_len);
  const std::size_t w = eps_merge_dispatch(sorted, n, out.data(), avx2);
  return finish_atoms(out.data(), w, avx2);
}

EXPMK_NOALLOC std::size_t max_of(std::span<const Atom> x, std::span<const Atom> y,
                   std::span<Atom> out, std::span<double> support_scratch) {
  // Support union. Both inputs are canonical (strictly ascending), so a
  // two-way merge with an exact-equality skip equals sort(concat) +
  // unique.
  std::size_t ns = 0;
  {
    std::size_t i = 0, j = 0;
    while (i < x.size() || j < y.size()) {
      double v;
      if (j >= y.size() || (i < x.size() && x[i].value <= y[j].value)) {
        v = x[i++].value;
      } else {
        v = y[j++].value;
      }
      if (ns == 0 || support_scratch[ns - 1] != v) support_scratch[ns++] = v;
    }
  }

  // Prefix CDFs in spec accumulation order (a sequential reduction, never
  // vectorized), then the dispatched product-CDF differencing:
  // F_max(v) = F_x(v) * F_y(v), an atom wherever F_max steps up.
  const bool avx2 = use_avx2();
  double* base = plane_arena(4 * ns);
  double* fx = base;
  double* fy = fx + ns;
  double* f = fy + ns;
  double* d = f + ns;
  {
    std::size_t ix = 0, iy = 0;
    double fxa = 0.0, fya = 0.0;
    for (std::size_t s = 0; s < ns; ++s) {
      const double v = support_scratch[s];
      while (ix < x.size() && x[ix].value <= v) fxa += x[ix++].prob;
      while (iy < y.size() && y[iy].value <= v) fya += y[iy++].prob;
      fx[s] = fxa;
      fy[s] = fya;
    }
  }
#if EXPMK_X86_SIMD
  if (avx2) {
    cdf_product_diff_avx2(fx, fy, ns, f, d);
  } else {
    cdf_product_diff_scalar(fx, fy, ns, f, d);
  }
#else
  cdf_product_diff_scalar(fx, fy, ns, f, d);
#endif

  // Compact the positive steps straight into `out` (f is monotone:
  // rounding a monotone real product is monotone, so d >= 0 and "d > 0"
  // is spec's f > prev_cdf). The support is strictly ascending, so
  // canonicalize's sort is the identity permutation here: eps-merge +
  // renormalize complete it.
  std::size_t m = 0;
  for (std::size_t s = 0; s < ns; ++s) {
    if (d[s] > 0.0) {
      out[m].value = support_scratch[s];
      out[m].prob = d[s];
      ++m;
    }
  }
  const std::size_t w = eps_merge_dispatch(out.data(), m, out.data(), avx2);
  return finish_atoms(out.data(), w, avx2);
}

EXPMK_NOALLOC std::size_t mixture(std::span<const Atom> x, double w,
                    std::span<const Atom> y, std::span<Atom> out) {
  if (w < 0.0 || w > 1.0) {
    throw std::invalid_argument("mixture: weight must be in [0,1]");
  }
  std::size_t k = 0;
  for (const Atom& at : x) out[k++] = {at.value, w * at.prob};
  for (const Atom& at : y) out[k++] = {at.value, (1.0 - w) * at.prob};
  return canonicalize(out.subspan(0, k));
}

namespace {

// Gap collection for one truncate pass: gaps[i] = value[i+1] - value[i],
// written twice (the walk's decision array and the nth_element scratch
// that the threshold pick is allowed to scramble). Elementwise
// subtraction only, so the AVX2 lanes produce the scalar spec's bits
// exactly and every downstream merge decision is backend-independent.
EXPMK_NOALLOC void truncate_gaps_scalar(const Atom* atoms, std::size_t n,
                                        double* gaps, double* sorted) {
  for (std::size_t i = 0; i + 1 < n; ++i) {
    const double g = atoms[i + 1].value - atoms[i].value;
    gaps[i] = g;
    sorted[i] = g;
  }
}

#if EXPMK_X86_SIMD
__attribute__((target("avx2")))
EXPMK_NOALLOC void truncate_gaps_avx2(const Atom* atoms, std::size_t n,
                                      double* gaps, double* sorted) {
  const std::size_t count = n - 1;  // callers guarantee n >= 2
  std::size_t i = 0;
  for (; i + 4 <= count; i += 4) {
    // Atoms are {value, prob} pairs: two 4-wide loads cover 4 atoms, and
    // unpacklo + permute4x64 gather the 4 values in order.
    const __m256d a0 = _mm256_loadu_pd(&atoms[i].value);
    const __m256d a1 = _mm256_loadu_pd(&atoms[i + 2].value);
    const __m256d b0 = _mm256_loadu_pd(&atoms[i + 1].value);
    const __m256d b1 = _mm256_loadu_pd(&atoms[i + 3].value);
    const __m256d va =
        _mm256_permute4x64_pd(_mm256_unpacklo_pd(a0, a1), 0xD8);
    const __m256d vb =
        _mm256_permute4x64_pd(_mm256_unpacklo_pd(b0, b1), 0xD8);
    const __m256d g = _mm256_sub_pd(vb, va);
    _mm256_storeu_pd(gaps + i, g);
    _mm256_storeu_pd(sorted + i, g);
  }
  for (; i < count; ++i) {
    const double g = atoms[i + 1].value - atoms[i].value;
    gaps[i] = g;
    sorted[i] = g;
  }
}
#endif

}  // namespace

EXPMK_NOALLOC std::size_t truncate(std::span<Atom> atoms, std::size_t max_atoms,
                     TruncationCert& cert, std::span<double> gap_scratch) {
  std::size_t n = atoms.size();
  if (max_atoms == 0 || n <= max_atoms) return n;

  std::size_t local_merges = 0;
  // Greedy pass merging nearest-by-value adjacent atoms; each round
  // removes roughly half the overshoot, and every merge's displacement
  // is accounted in the certificate.
  while (n > max_atoms) {
    const std::size_t excess = n - max_atoms;
    // Collect gaps, pick a threshold so we merge ~excess pairs this pass.
    const std::span<double> gaps = gap_scratch.subspan(0, n - 1);
    const std::span<double> sorted = gap_scratch.subspan(n - 1, n - 1);
#if EXPMK_X86_SIMD
    if (use_avx2()) {
      truncate_gaps_avx2(atoms.data(), n, gaps.data(), sorted.data());
    } else {
      truncate_gaps_scalar(atoms.data(), n, gaps.data(), sorted.data());
    }
#else
    truncate_gaps_scalar(atoms.data(), n, gaps.data(), sorted.data());
#endif
    const std::size_t kth = std::min(excess, sorted.size()) - 1;
    std::nth_element(sorted.begin(),
                     sorted.begin() + static_cast<std::ptrdiff_t>(kth),
                     sorted.end());
    const double threshold = sorted[kth];

    // Merge walk, compacting IN PLACE: the write index m never passes the
    // read index i (a merge consumes two atoms for one write, a keep is a
    // self- or left-shift copy), so the pass needs no atom scratch and the
    // former scratch->atoms copy-back is gone. The displacement
    // accumulation below runs in the same left-to-right order as the
    // scalar spec always did — cert.up/down are bit-identical by
    // construction.
    std::size_t m = 0;
    std::size_t i = 0;
    std::size_t budget = excess;  // pairs we may merge this pass
    while (i < n) {
      if (budget == 0) {
        // No merges can fire past this point: the rest of the pass is a
        // pure left shift, done in one bulk move. (Typical dodin combine
        // steps overshoot the cap by a few atoms, so most of the walk is
        // this tail.)
        if (m != i) {
          std::memmove(atoms.data() + m, atoms.data() + i,
                       (n - i) * sizeof(Atom));
        }
        m += n - i;
        break;
      }
      if (i + 1 < n && gaps[i] <= threshold) {
        const Atom a = atoms[i];
        const Atom b = atoms[i + 1];
        const double p = a.prob + b.prob;
        const double v = (a.value * a.prob + b.value * b.prob) / p;
        // Mass p_a moved up to the weighted mean, mass p_b moved down:
        // the certified expectation-shift envelope of this merge.
        cert.up += a.prob * (v - a.value);
        cert.down += b.prob * (b.value - v);
        ++local_merges;
        atoms[m++] = {v, p};
        i += 2;
        --budget;
      } else {
        atoms[m] = atoms[i];
        ++m;
        ++i;
      }
    }
    if (m == n) break;  // no progress (defensive)
    n = m;
  }
  if (local_merges > 0) {
    ++cert.events;
    cert.merges += local_merges;
  }
  // Re-canonicalize: merged values may have landed within the eps
  // window, and the merged masses are renormalized.
  return canonicalize(atoms.subspan(0, n));
}

}  // namespace expmk::prob::dist_kernels
