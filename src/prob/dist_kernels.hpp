// prob/dist_kernels.hpp
//
// The distribution arithmetic of the library: every discrete-distribution
// operation the analytic pipeline is built on (consolidate / shift /
// convolve / max-of / truncate), expressed as kernels over
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
// backend does not touch these kernels. convolve's exact path orders its
// cross product with a STABLE bottom-up merge of pre-sorted runs, so it
// combines exact value ties in the stable run order (earlier run first,
// not consolidate's std::sort order), and its final renormalize
// multiplies by one reciprocal (r = 1/total).
//
// Scratch. Kernels take every scratch buffer from the caller (the
// evaluators lease them from exp::Workspace), so a kernel holds no state
// between calls and Workspace::release() frees everything they used.
//
// The atom cap. Capped evaluators bound every law to `max_atoms` atoms.
// Two kernels apply the cap, and both only ever GROUP atoms: they
// partition a law's atoms into value-contiguous groups and replace each
// group by one atom at the group's probability-weighted mean, carrying
// the group's total mass. `truncate` groups an existing canonical list
// (runs of its cheapest adjacent pairs); the budgeted `convolve` groups
// the n*m outer product of its inputs into value bins before it ever
// sorts them, then truncates the few bins. The grouping is mean-preserving
// for the law at hand but NOT for the expectation of a downstream
// max/convolve pipeline, so every grouping is accounted in a
// TruncationCert: a group G moved to v = sum_G p_k v_k / sum_G p_k adds
//
//     up   += sum over k in G with v_k < v of p_k (v - v_k)
//     down += sum over k in G with v_k > v of p_k (v_k - v).
//
// Why that certifies the envelope: couple the grouped law with the
// original one pointwise, sending each original outcome v_k to its
// group's atom v. The makespan is a monotone, 1-Lipschitz function of
// every intermediate duration value (compositions of + and max), so on
// each outcome the downstream result moves up by at most (v - v_k)^+ and
// down by at most (v_k - v)^+. Taking expectations, the *untruncated*
// pipeline's expectation E* is bracketed by
//
//     mean - cert.up  <=  E*  <=  mean + cert.down
//
// where `mean` is the capped pipeline's result and up/down are summed
// over every grouping of every capped operation. The argument uses only
// that each atom moves to its own group's atom, so it holds for any
// partition: pairs, runs of any length, value bins. Two-stage groupings
// (bins, then a walk over the bins) add their stage certificates, which
// bounds the composed displacement because (a + b)^+ <= a^+ + b^+. This
// is the envelope EvalResult::mean_lo/mean_hi surfaces (see
// exp/evaluator.hpp); it certifies the atom-cap error only, not a
// method's own modeling bias, and not E[makespan] itself.

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
  std::size_t events = 0;   ///< capped operations that grouped any atoms
  std::size_t merges = 0;   ///< atoms grouped away: a k-atom group counts
                            ///< k - 1, a binned convolve counts its n*m
                            ///< products minus the atoms it returns

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

/// Bins per budgeted atom: a capped convolve whose n*m outer product
/// exceeds kConvolveBinsPerAtom * max_atoms sums it into that many value
/// bins instead of sorting it.
inline constexpr std::size_t kConvolveBinsPerAtom = 4;

/// What one convolve call needs from the caller, by path (see convolve).
struct ConvolveScratch {
  std::size_t out = 0;    ///< atoms `out` must hold
  std::size_t atoms = 0;  ///< atoms `atom_scratch` must hold
  std::size_t gaps = 0;   ///< doubles `gap_scratch` must hold
};
[[nodiscard]] ConvolveScratch convolve_scratch(std::size_t nx, std::size_t ny,
                                               std::size_t max_atoms) noexcept;

/// X + Y for independent canonical X, Y, capped at `max_atoms` atoms
/// (0 = no cap). The path is chosen by the product count n*m:
///  * max_atoms == 0 or n*m <= max_atoms: the exact fold. The cross
///    product is laid out as one pre-sorted run per atom of the smaller
///    input, then reduced canonically (stable bottom-up run merge,
///    eps-merge, renormalize). Exact value ties combine in the stable
///    merge order (see the file comment).
///  * n*m <= kConvolveBinsPerAtom * max_atoms: the exact fold, then
///    truncate().
///  * larger: one pass sums the products into kConvolveBinsPerAtom *
///    max_atoms equal-width value bins (mass and mass * value per bin),
///    each non-empty bin becomes one atom at its weighted mean, a second
///    pass certifies every product's exact displacement to its bin's
///    atom, and truncate()'s group walk cuts the bins to max_atoms. No
///    product is ever sorted.
/// The call's certificate is summed in a fresh local one and then
/// accumulated into `cert` (one event when anything was grouped). Scratch
/// sizes come from convolve_scratch(); the binned path needs no atom
/// scratch. None of the spans may overlap the inputs or each other.
EXPMK_NOALLOC std::size_t convolve(std::span<const Atom> x, std::span<const Atom> y,
                                   std::size_t max_atoms, TruncationCert& cert,
                                   std::span<Atom> out,
                                   std::span<Atom> atom_scratch,
                                   std::span<double> gap_scratch);

/// max(X, Y) for independent canonical X, Y via support union and
/// product-CDF differencing in one pass, then canonicalize. No atom cap:
/// capped callers truncate() the result. `out` must hold x.size() + y.size()
/// atoms and must not overlap the inputs; no scratch is needed.
EXPMK_NOALLOC std::size_t max_of(std::span<const Atom> x, std::span<const Atom> y,
                                 std::span<Atom> out);

/// Reduces a canonical list of n = atoms.size() atoms to at most
/// `max_atoms` in one pass. Each adjacent pair is ranked by its squared
/// value gap times the heavier atom's mass (so close, light atoms group
/// before heavy ones move); one nth_element picks the n - max_atoms cheapest pairs (ties
/// taken left to right, so the count is exact), and one walk replaces
/// each maximal run of picked pairs by a single atom at its group's
/// weighted mean, certifying each group exactly. The walk keeps the list ascending, so only the eps-merge and
/// the renormalize of canonicalize follow. The call's certificate is
/// summed in a fresh local one and then accumulated into `cert`. In
/// place; returns the new count. No-op (and no cert event) when
/// max_atoms == 0 or n <= max_atoms. Scratch: `gap_scratch` >= n - 1
/// doubles; the walk compacts in place (its write index never passes
/// its read index), so no atom scratch is needed.
EXPMK_NOALLOC std::size_t truncate(std::span<Atom> atoms, std::size_t max_atoms,
                     TruncationCert& cert, std::span<double> gap_scratch);

}  // namespace expmk::prob::dist_kernels
