// Test-only reference truncation: the halving-pass nearest-gap merge that
// prob::dist_kernels::truncate used before the one-pass group walk, kept
// verbatim as an oracle. The library's budgeted convolve and one-pass
// truncate must certify an envelope no wider than this kernel does on
// the same fold (tests/test_budgeted_kernels.cpp).

#pragma once

#include <cstddef>
#include <span>

#include "prob/atom.hpp"
#include "prob/dist_kernels.hpp"

namespace expmk::test {

/// Reduces a canonical list of n = atoms.size() atoms to at most
/// `max_atoms` by nearest-adjacent-pair merge passes (nth_element
/// threshold, per-pass merge budget, final canonicalize), accumulating
/// the expectation-shift envelope into `cert`. In place; returns the new
/// count. No-op (and no cert event) when max_atoms == 0 or
/// n <= max_atoms. Scratch: `gap_scratch` >= 2*(n-1) doubles.
std::size_t reference_truncate(std::span<prob::Atom> atoms,
                               std::size_t max_atoms,
                               prob::dist_kernels::TruncationCert& cert,
                               std::span<double> gap_scratch);

}  // namespace expmk::test
