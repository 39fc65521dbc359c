// tests/dist_ops.hpp
//
// Reference distribution arithmetic on prob::DiscreteDistribution values,
// for tests only. The library computes on span kernels
// (prob/dist_kernels.hpp) in workspace arenas and uses
// DiscreteDistribution only as a boundary value type; the tests keep a
// value-level spelling of the same operations because the object-model
// references (tests/sp_reference, tests/reference_estimators) and the
// property and fidelity tests are written against it. Each function is a
// thin allocating wrapper over one kernel, so its result is bit-identical
// to the kernel's on the same inputs.

#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "prob/discrete_distribution.hpp"
#include "prob/dist_kernels.hpp"

namespace expmk::dist_ops {

using prob::DiscreteDistribution;
using prob::dist_kernels::LawTable;
using prob::dist_kernels::TruncationCert;

/// X + Y for independent X, Y; capped at `max_atoms` (0 = unlimited).
/// When the cap fires and `cert` is given, the certified envelope of the
/// truncation accumulates into it.
[[nodiscard]] DiscreteDistribution convolve(const DiscreteDistribution& x,
                                            const DiscreteDistribution& y,
                                            std::size_t max_atoms = 0,
                                            TruncationCert* cert = nullptr);

/// max(X, Y) for independent X, Y; capped like convolve.
[[nodiscard]] DiscreteDistribution max_of(const DiscreteDistribution& x,
                                          const DiscreteDistribution& y,
                                          std::size_t max_atoms = 0,
                                          TruncationCert* cert = nullptr);

/// With probability w take X, else Y (w outside [0,1] throws
/// std::invalid_argument). The library has no mixture kernel; this is the
/// test oracle's own loop.
[[nodiscard]] DiscreteDistribution mixture(const DiscreteDistribution& x,
                                           double w,
                                           const DiscreteDistribution& y);

/// `d` reduced to at most `max_atoms` atoms (0 = unlimited). The merges
/// are certified into a local certificate first, then accumulated into
/// `cert` when given — the grouping the library's per-op envelopes use.
[[nodiscard]] DiscreteDistribution truncated(const DiscreteDistribution& d,
                                             std::size_t max_atoms,
                                             TruncationCert* cert = nullptr);

/// X + c.
[[nodiscard]] DiscreteDistribution shifted(const DiscreteDistribution& d,
                                           double c);

/// Geometric re-execution law truncated at `max_attempts` executions:
/// k*a with probability p(1-p)^{k-1} for k < max_attempts and the
/// remaining tail mass on max_attempts*a.
[[nodiscard]] DiscreteDistribution geometric_reexec(double a,
                                                    double p_success,
                                                    int max_attempts);

/// Same atom count, and values and probabilities within `tol`.
[[nodiscard]] bool approx_equals(const DiscreteDistribution& a,
                                 const DiscreteDistribution& b,
                                 double tol = 1e-9);

/// An owning law table built from per-task laws (for the SP/Dodin laws
/// entries), and the inverse.
struct OwnedLawTable {
  std::vector<prob::Atom> atoms;
  std::vector<std::uint64_t> offsets;

  [[nodiscard]] LawTable view() const { return {atoms, offsets}; }
};
[[nodiscard]] OwnedLawTable law_table(
    std::span<const DiscreteDistribution> laws);
[[nodiscard]] std::vector<DiscreteDistribution> distributions(
    const LawTable& table);

}  // namespace expmk::dist_ops
