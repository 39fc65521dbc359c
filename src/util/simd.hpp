// util/simd.hpp
//
// Runtime SIMD backend selection. Two stages dispatch on it: the Philox
// bulk generator's two fills (the buffered stream and the trial-lane
// fill). Every other kernel has one implementation; a second, vectorized
// path is kept only where an end-to-end A/B shows it pays (DESIGN.md,
// "SIMD kernel layer"). One process-wide answer, resolved once:
//
//   * compile-time gate: non-x86 builds compile the scalar path only and
//     active() is constant Scalar;
//   * runtime CPU dispatch: on x86-64 the AVX2 path is selected iff the
//     CPU reports AVX2 (GCC/Clang __builtin_cpu_supports), so one binary
//     serves both old and new machines;
//   * operator override: EXPMK_FORCE_SCALAR=1 in the environment pins the
//     scalar path at startup — the CI scalar-fallback job runs the whole
//     suite this way, and it is the knob for A/B-ing kernels in place.
//
// Contract: each dispatched stage's AVX2 arm performs the exact
// per-element operation sequence of its scalar twin (no reassociation),
// so the backends are BIT-IDENTICAL; tests/test_simd_kernels.cpp
// enforces it.

#pragma once

namespace expmk::util::simd {

enum class Backend {
  Scalar,  ///< portable reference path (the executable spec)
  Avx2,    ///< AVX2 (no FMA: -ffp-contract=off is a library-wide contract)
};

/// The backend every dispatched kernel uses. Resolved on first call:
/// EXPMK_FORCE_SCALAR=1 wins, then CPU detection, else Scalar. Stable for
/// the life of the process unless force() overrides it.
[[nodiscard]] Backend active() noexcept;

/// Test hook: pins the backend from now on (overrides the environment and
/// the CPU probe). Passing Avx2 on a CPU without AVX2 is rejected by
/// returning false (the caller skips the cross-backend assertion).
bool force(Backend b) noexcept;

/// Lower-case display name ("scalar", "avx2") for logs and BENCH files.
[[nodiscard]] const char* name(Backend b) noexcept;

}  // namespace expmk::util::simd
