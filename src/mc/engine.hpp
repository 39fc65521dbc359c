// mc/engine.hpp
//
// Parallel Monte-Carlo estimation of the expected makespan — the paper's
// ground truth (300,000 trials in Section V; configurable here).
//
// Trial path: the trial-lane kernel (mc/trial.hpp run_trial_lanes) sweeps
// eight consecutive trials per CSR pass over a vertex-major lane matrix
// (task_count() x 8 doubles per work unit; nothing is allocated per
// trial).
//
// Reproducibility: every trial draws from its own counter-based Philox
// stream (prob::McRng) — a pure function of (seed, trial_index) with no
// per-trial state expansion — and trials are partitioned into a FIXED
// number of chunks (independent of the thread count) whose Welford
// accumulators are merged in chunk order — so the estimate is
// bit-identical for any thread count. Work units are contiguous runs of
// chunks; a lane batch may straddle a chunk boundary, and each trial's
// observation is pushed into its own chunk's accumulator in trial order,
// so every accumulator sees exactly the sequence a one-trial loop would
// give it. With one resolved worker there is one unit, run inline (no
// thread pool). tests/test_csr.cpp pins this contract down to the last
// bit.
//
// Variance reduction: an optional control variate
//   Z = sum_i a_i * (executions_i - 1)       (E[Z] known in closed form)
// is strongly positively correlated with the makespan inflation and
// typically shrinks the estimator variance substantially at low pfail;
// bench/ablation_mc quantifies the effect.

#pragma once

#include <cstdint>
#include <vector>

#include "mc/trial.hpp"

namespace expmk::mc {

/// Number of work chunks the Monte-Carlo engines split their trial range
/// into. Deliberately a fixed constant, NOT a function of the thread
/// count: chunk boundaries determine the accumulator merge tree, so a
/// fixed partition (plus the per-trial counter-based RNG streams) makes
/// estimates bit-identical for ANY thread count — the reproducibility
/// contract shared by run_monte_carlo and run_conditional_monte_carlo.
/// 128 chunks keep the pool load-balanced well past any realistic core
/// count. Changing this value changes merge order (NOT the sampled
/// trials), so it is an estimate-perturbing event at the float-noise
/// level; treat it like a seed change.
inline constexpr std::size_t kEngineChunks = 128;

/// Engine configuration. `trials` must be >= 1; run_monte_carlo throws
/// std::invalid_argument on 0 (a misconfiguration, not a rounding case).
struct McConfig {
  std::uint64_t trials = 300'000;  ///< the paper's trial count
  std::uint64_t seed = 0xC0FFEE;
  /// Worker threads; 0 = hardware concurrency.
  std::size_t threads = 0;
  /// Use the control-variate estimator (see file comment).
  bool control_variate = false;
  /// Keep all sampled makespans (histogram/quantile post-processing).
  bool capture_samples = false;
};

/// Estimation result.
struct McResult {
  double mean = 0.0;            ///< plain (or CV-adjusted) estimate
  double variance = 0.0;        ///< sample variance of the estimator basis
  double std_error = 0.0;       ///< standard error of `mean`
  double ci95_half_width = 0.0;
  double ci99_half_width = 0.0;
  double min = 0.0;
  double max = 0.0;
  std::uint64_t trials = 0;
  double seconds = 0.0;         ///< wall-clock time spent sampling

  // Control-variate diagnostics (zero when disabled).
  double plain_mean = 0.0;           ///< estimate without the CV adjustment
  double variance_reduction = 1.0;   ///< var(plain) / var(cv)

  /// Captured samples when McConfig::capture_samples was set.
  std::vector<double> samples;
};

/// Runs the Monte-Carlo estimation with zero per-call preprocessing (the
/// lane kernel reads the compiled scenario's arrays directly;
/// heterogeneous per-task rates are supported transparently). The retry model the
/// scenario was compiled with governs sampling.
[[nodiscard]] McResult run_monte_carlo(const scenario::Scenario& sc,
                                       const McConfig& config = {});

}  // namespace expmk::mc
