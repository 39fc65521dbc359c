// mc/planning.hpp
//
// Trial-count planning for the Monte-Carlo ground truth. The paper (II-A1)
// notes that "an interesting question is that of determining the number of
// trials to obtain a high confidence level" and side-steps it by using
// 300,000 trials; this module answers it:
//
//  * a priori (Hoeffding): the makespan is bounded by [d(G), 2 d(G)] under
//    the 2-state model, so trials >= ln(2/alpha) * range^2 / (2 eps^2)
//    guarantee P(|mean - E| > eps) <= alpha without any pilot run;
//  * a posteriori (CLT): from a pilot run's sample variance, the trials
//    needed for a target CI half-width.

#pragma once

#include <cstdint>

#include "mc/engine.hpp"
#include "prob/statistics.hpp"

namespace expmk::mc {

/// Hoeffding bound: trials needed so the empirical mean of a variable
/// bounded in [lo, hi] is within `epsilon` of its expectation with
/// probability >= confidence. Distribution-free, hence conservative.
[[nodiscard]] std::uint64_t hoeffding_trials(double lo, double hi,
                                             double epsilon,
                                             double confidence);

/// CLT-based planning: given a pilot's sample standard deviation, trials
/// needed for a CI half-width <= epsilon at the given confidence.
[[nodiscard]] std::uint64_t clt_trials(double sample_stddev, double epsilon,
                                       double confidence);

/// Convenience: plan from a pilot RunningStats for a *relative* target
/// (epsilon = relative_error * pilot mean).
[[nodiscard]] std::uint64_t plan_trials(const prob::RunningStats& pilot,
                                        double relative_error,
                                        double confidence);

/// Outcome of a pilot-driven plan: the pilot estimate itself plus the
/// total trial count the CLT bound asks for.
struct PilotPlan {
  McResult pilot;
  std::uint64_t planned_trials = 0;
};

/// End-to-end a-posteriori planning: runs `pilot_config` trials through
/// the Monte-Carlo engine on the compiled scenario (heterogeneous rates
/// supported; the scenario's retry model governs sampling), then sizes the
/// production run for a relative CI half-width <= relative_error at the
/// given confidence. The pilot's own trials count toward the plan, so a
/// plan smaller than the pilot means "the pilot already suffices".
[[nodiscard]] PilotPlan plan_with_pilot(const scenario::Scenario& sc,
                                        double relative_error,
                                        double confidence,
                                        const McConfig& pilot_config = {
                                            .trials = 2000});

}  // namespace expmk::mc
