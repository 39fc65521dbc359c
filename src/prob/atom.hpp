// prob/atom.hpp
//
// The one probability atom shared by the whole distribution layer: the
// kernels (dist_kernels.hpp) operate on spans of Atom, exp::Workspace
// leases Atom arenas for the allocation-free evaluators, and the boundary
// value type DiscreteDistribution holds a vector of them. Kept apart from
// discrete_distribution.hpp so the kernels and the workspace do not pull
// in the value type.

#pragma once

namespace expmk::prob {

/// One probability atom: P(X = value) = prob.
struct Atom {
  double value;
  double prob;
};

/// Relative value gap below which two atoms are merged during
/// consolidation (dist_kernels::consolidate, and so every operation that
/// canonicalizes its result). One constant for the whole library.
inline constexpr double kValueMergeEps = 1e-12;

}  // namespace expmk::prob
