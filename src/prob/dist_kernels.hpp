// prob/dist_kernels.hpp
//
// The distribution arithmetic of the library: every discrete-distribution
// operation the analytic pipeline is built on (consolidate / shift /
// convolve / max-of / mixture / truncate), expressed as kernels over
// caller-provided spans of prob::Atom. These kernels ARE the definition:
// there is no second implementation. The workspace-backed evaluators (the
// series-parallel reduction, Dodin's transformation, the hierarchical
// module build, the level-decomposition bound) call them on
// exp::Workspace-leased arenas and therefore run allocation-free at
// steady state. prob::DiscreteDistribution is only the value type that
// carries a finished law across an API boundary.
//
// Contract:
//  * a *canonical* atom list is sorted strictly increasing by value
//    (beyond the prob::kValueMergeEps relative merge window), has positive
//    probabilities, and total mass 1 (renormalized);
//  * `consolidate` + `normalize` (= `canonicalize`) turn any raw atom list
//    into its canonical form — DiscreteDistribution::from_atoms runs
//    exactly this pipeline;
//  * every kernel writes its result left-aligned into the output span and
//    returns the atom count; inputs and outputs must not overlap unless a
//    kernel is documented as in-place.
//
// One implementation per kernel, with no runtime dispatch: util::simd's
// backend does not touch these kernels. convolve orders its cross product
// with a STABLE bottom-up merge of pre-sorted runs, so it combines exact
// value ties in the stable run order (earlier run first, not
// consolidate's std::sort order), and its final renormalize multiplies
// by one reciprocal (r = 1/total).
//
// Scratch. Kernels take every scratch buffer from the caller (the
// evaluators lease them from exp::Workspace), so a kernel holds no state
// between calls and Workspace::release() frees everything they used.
//
// Certified truncation. `truncate` reduces an atom list to a budget by
// repeatedly merging the adjacent pair with the smallest value gap into
// its probability-weighted mean — mean-preserving for the distribution at
// hand, but NOT for the expectation of a downstream max/convolve pipeline.
// Each merge is accounted for in a TruncationCert: merging (v_a, p_a),
// (v_b, p_b) at v = (p_a v_a + p_b v_b)/(p_a + p_b) moves mass p_a upward
// by (v - v_a) and mass p_b downward by (v_b - v). The makespan is a
// monotone, 1-Lipschitz function of every intermediate duration value
// (compositions of + and max), so by a pointwise coupling argument the
// expectation of the *untruncated* pipeline E* is bracketed by
//
//     mean - cert.up  <=  E*  <=  mean + cert.down
//
// where `mean` is the truncated pipeline's result and up/down are the
// probability-weighted displacement totals accumulated across every merge
// of every truncation. This is the envelope EvalResult::mean_lo/mean_hi
// surfaces (see exp/evaluator.hpp); it certifies the atom-cap error only,
// not a method's own modeling bias.

#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "prob/atom.hpp"
#include "util/contracts.hpp"

namespace expmk::prob::dist_kernels {

/// The certified-truncation accumulator (see the file comment). Totals
/// add across operations: pass one accumulator through a whole pipeline.
struct TruncationCert {
  double up = 0.0;          ///< sum of p * (merged - original) moved upward
  double down = 0.0;        ///< sum of p * (original - merged) moved downward
  std::size_t events = 0;   ///< truncate() calls that merged at least once
  std::size_t merges = 0;   ///< total pair merges across all events

  void accumulate(const TruncationCert& o) noexcept {
    up += o.up;
    down += o.down;
    events += o.events;
    merges += o.merges;
  }
};

/// Drops non-positive masses (order-preserving), sorts ascending by
/// value, and merges atoms within the kValueMergeEps relative window into
/// the first atom's value. In place; returns the new count.
EXPMK_NOALLOC std::size_t consolidate(std::span<Atom> atoms);

/// Divides every probability by the total. Throws std::invalid_argument
/// when the span is empty or the total mass is not positive.
EXPMK_NOALLOC void normalize(std::span<Atom> atoms);

/// The from_atoms pipeline on a span: consolidate then normalize the
/// surviving prefix. In place; returns the canonical count.
EXPMK_NOALLOC std::size_t canonicalize(std::span<Atom> atoms);

/// E[X] of a canonical atom list (fixed four-accumulator association).
EXPMK_NOALLOC [[nodiscard]] double mean(std::span<const Atom> atoms) noexcept;

/// Smallest support value v with P(X <= v) >= q, q in (0,1], with a
/// 1e-15 slack on the running CDF.
EXPMK_NOALLOC [[nodiscard]] double quantile(std::span<const Atom> atoms, double q);

/// Point mass at `value`; writes 1 atom.
EXPMK_NOALLOC std::size_t point(double value, std::span<Atom> out);

/// The paper's 2-state task law: a w.p. p_success, else 2a (p >= 1 or
/// p <= 0 collapse to a point mass). Writes <= 2 atoms; returns the
/// count. Requires a > 0 and p in [0, 1] (unchecked: callers feed
/// Scenario-validated inputs).
EXPMK_NOALLOC std::size_t two_state(double a, double p_success, std::span<Atom> out);

/// `n` canonical laws stored back to back in one atom span: law i is
/// atoms[offsets[i], offsets[i + 1]), so `offsets` holds n + 1 entries.
/// The hierarchical module build produces one (exp/hier.hpp) and the
/// SP/Dodin laws entries consume it (spgraph/); both views point into
/// storage the caller owns, typically exp::Workspace leases.
struct LawTable {
  std::span<const Atom> atoms;
  std::span<const std::uint64_t> offsets;

  [[nodiscard]] std::size_t size() const noexcept {
    return offsets.empty() ? 0 : offsets.size() - 1;
  }
  [[nodiscard]] std::span<const Atom> law(std::size_t i) const noexcept {
    return atoms.subspan(offsets[i], offsets[i + 1] - offsets[i]);
  }
};

/// X + c in place.
EXPMK_NOALLOC void shift(std::span<Atom> atoms, double c) noexcept;

/// X + Y for independent canonical X, Y: cross product laid out as one
/// pre-sorted run per atom of the smaller input, then the canonical
/// reduction (stable bottom-up run merge, eps-merge, renormalize). No
/// atom cap: callers truncate() the result. Exact value ties combine in
/// the stable merge order (see the file comment). `out` and
/// `atom_scratch` must each hold x.size() * y.size() atoms; the merge
/// passes ping-pong between them. Neither may overlap the inputs or
/// each other.
EXPMK_NOALLOC std::size_t convolve(std::span<const Atom> x, std::span<const Atom> y,
                                   std::span<Atom> out,
                                   std::span<Atom> atom_scratch);

/// max(X, Y) for independent canonical X, Y via support union and
/// product-CDF differencing in one pass, then canonicalize. No atom cap:
/// callers truncate() the result. `out` must hold x.size() + y.size()
/// atoms and must not overlap the inputs; no scratch is needed.
EXPMK_NOALLOC std::size_t max_of(std::span<const Atom> x, std::span<const Atom> y,
                                 std::span<Atom> out);

/// Mixture: with probability w take X, else Y (throws
/// std::invalid_argument on w outside [0,1]). `out` must hold
/// x.size() + y.size() atoms.
EXPMK_NOALLOC std::size_t mixture(std::span<const Atom> x, double w,
                    std::span<const Atom> y, std::span<Atom> out);

/// Reduces a canonical list of n = atoms.size() atoms to at most
/// `max_atoms` by nearest-adjacent-pair merge passes (nth_element
/// threshold, per-pass merge budget, final canonicalize), accumulating
/// the expectation-shift envelope into `cert`. Callers that keep one
/// certificate per operation truncate into a fresh local certificate and
/// then accumulate() it into their running total; that grouping is part
/// of every pinned envelope. In place; returns the new count. No-op (and no
/// cert event) when max_atoms == 0 or n <= max_atoms. Scratch:
/// `gap_scratch` >= 2*(n-1) doubles. The merge walk compacts in place
/// (the write index never passes the read index), so no atom scratch is
/// needed.
EXPMK_NOALLOC std::size_t truncate(std::span<Atom> atoms, std::size_t max_atoms,
                     TruncationCert& cert, std::span<double> gap_scratch);

}  // namespace expmk::prob::dist_kernels
