// mc/conditional.hpp
//
// Conditional (zero-failure-stratum) Monte Carlo. At the paper's realistic
// failure rates almost every trial has *no* failure at all and contributes
// exactly d(G) — pure wasted work and pure noise dilution. Conditioning
// removes it analytically:
//
//   E[M] = p0 * d(G) + (1 - p0) * E[M | at least one failure],
//   p0   = prod_i e^{-lambda a_i}  (exactly computable),
//
// and only the conditional expectation is sampled (by rejection: redraw
// the failure pattern until non-empty — each rejection costs O(V)
// Bernoullis, no longest-path evaluation). The estimator is unbiased and
// its standard error carries the (1 - p0) factor, which at pfail = 1e-4
// on the k = 12 DAGs is ~0.06: a ~250x variance reduction per trial
// (validated by tests and bench/ablation_mc).
//
// Only the TwoState retry model is supported: conditioning is on the
// failure *pattern*, which in the geometric model is not a finite object.

#pragma once

#include "mc/engine.hpp"

namespace expmk::mc {

/// Configuration (subset of McConfig; retry model fixed to TwoState).
/// `trials` and `max_rejections_per_trial` must be >= 1
/// (std::invalid_argument otherwise).
struct ConditionalMcConfig {
  std::uint64_t trials = 100'000;  ///< conditional trials (post-rejection)
  std::uint64_t seed = 0xC0DE;
  std::size_t threads = 0;
  /// Give up on a trial's rejection loop after this many redraw attempts
  /// (guards lambda ~ 0 where failures never occur). A trial whose loop
  /// gives up is *censored* — counted in censored_trials, contributing
  /// nothing to the conditional statistics (fabricating a sample would
  /// bias the conditional mean toward d(G)); the analytic p0 term carries
  /// essentially the whole estimate in that regime anyway.
  std::uint64_t max_rejections_per_trial = 1'000'000;
};

/// Estimation result.
struct ConditionalMcResult {
  double mean = 0.0;       ///< p0 * d(G) + (1-p0) * conditional mean
  double std_error = 0.0;  ///< (1-p0) * conditional standard error
  double ci95_half_width = 0.0;
  double p_zero_failures = 0.0;  ///< exact p0
  double critical_path = 0.0;    ///< d(G)
  double conditional_mean = 0.0; ///< E[M | >=1 failure] estimate
  std::uint64_t trials = 0;      ///< accepted (uncensored) trials
  /// Trials whose rejection loop hit max_rejections_per_trial without
  /// drawing a failure; excluded from the conditional statistics.
  std::uint64_t censored_trials = 0;
  double avg_rejections = 0.0;   ///< redraws per accepted trial
  double seconds = 0.0;
};

/// Runs the conditional estimator on the compiled CSR view and success
/// probabilities (zero per-call preprocessing); heterogeneous per-task
/// rates are supported transparently — p0 and the rejection sampler are
/// per-task either way. The scenario's retry model must be TwoState
/// (std::invalid_argument otherwise; conditioning on the failure pattern
/// is not a finite object under the geometric model).
[[nodiscard]] ConditionalMcResult run_conditional_monte_carlo(
    const scenario::Scenario& sc, const ConditionalMcConfig& config = {});

}  // namespace expmk::mc
