// prob/discrete_distribution.hpp
//
// A finite discrete probability distribution over the reals, as a VALUE:
// the type a finished makespan law crosses an API boundary in
// (EvalResult::distribution, the SP/Dodin capture sinks, the exact
// oracle's output). It holds one canonical atom vector plus its factories
// and read-only queries, following DynaPlex's DiscreteDist.
//
// It carries no arithmetic of its own. Convolution, max-of, truncation
// and the rest live once, as span kernels in prob/dist_kernels.hpp, and
// the evaluators run them on exp::Workspace arenas; a law becomes a
// DiscreteDistribution only when it leaves the library.

#pragma once

#include <cstddef>
#include <iosfwd>
#include <vector>

#include "prob/atom.hpp"

namespace expmk::prob {

/// An immutable-after-construction finite distribution. Invariants:
/// atoms sorted strictly increasing by value, probabilities positive,
/// total mass 1 within ~1e-9 (renormalized on construction).
class DiscreteDistribution {
 public:
  /// The degenerate distribution at 0.
  DiscreteDistribution();

  /// Point mass at `value`.
  static DiscreteDistribution point(double value);

  /// Two-state task-duration law: `a` with probability p, `2a` with 1-p.
  /// This is the paper's silent-error model for one task.
  static DiscreteDistribution two_state(double a, double p_success);

  /// From raw atoms (any order, duplicates allowed); consolidates, drops
  /// non-positive masses, renormalizes (dist_kernels::consolidate then
  /// normalize). Throws if total mass is not positive.
  static DiscreteDistribution from_atoms(std::vector<Atom> atoms);

  /// Trusted constructor for kernel results: `atoms` must already be
  /// canonical (dist_kernels::canonicalize output — strictly ascending,
  /// positive, normalized). Skips the re-consolidation and
  /// re-normalization of from_atoms, so an exported distribution is
  /// byte-identical to the arena slice it came from. Throws on an empty
  /// list.
  static DiscreteDistribution from_canonical(std::vector<Atom> atoms);

  [[nodiscard]] const std::vector<Atom>& atoms() const noexcept {
    return atoms_;
  }
  [[nodiscard]] std::size_t size() const noexcept { return atoms_.size(); }

  [[nodiscard]] double mean() const noexcept;
  [[nodiscard]] double variance() const noexcept;
  [[nodiscard]] double min() const noexcept { return atoms_.front().value; }
  [[nodiscard]] double max() const noexcept { return atoms_.back().value; }

  /// P(X <= x).
  [[nodiscard]] double cdf(double x) const noexcept;
  /// Smallest support value v with P(X <= v) >= q, q in (0,1].
  [[nodiscard]] double quantile(double q) const;

 private:
  explicit DiscreteDistribution(std::vector<Atom> sorted_atoms);

  std::vector<Atom> atoms_;
};

/// Streams "{(v1,p1),(v2,p2),...}" — for test failure messages.
std::ostream& operator<<(std::ostream& os, const DiscreteDistribution& d);

}  // namespace expmk::prob
