// core/failure_model.hpp
//
// The silent-error failure model of Section III and the pfail -> lambda
// calibration of Section V-C.
//
// Tasks fail independently; failure arrival is exponential with rate
// lambda, so the first execution attempt of task i fails with probability
// 1 - exp(-lambda * a_i). A silent error is only caught by the verification
// at the end of the task, so a failed task re-executes from scratch.

#pragma once

#include "graph/dag.hpp"

namespace expmk::core {

/// How task re-execution is modeled.
enum class RetryModel {
  /// The paper's first-order model: a task fails at most once, i.e. its
  /// duration is a_i w.p. exp(-lambda a_i) and 2 a_i otherwise. This is
  /// the probabilistic 2-state DAG whose expected makespan is #P-complete.
  TwoState,
  /// The "true" model: re-executions may fail again; the number of
  /// executions is geometric. Differs from TwoState by O(lambda^2).
  Geometric,
};

/// The exponential silent-error model with rate `lambda` (errors per
/// second of execution).
///
/// `lambda == 0` is the explicit *zero-failure* model: p_success(a) == 1
/// for every weight, mtbf() is infinite, and every evaluator in the
/// library (exact enumeration, Monte-Carlo, the approximations) yields
/// exactly the failure-free makespan d(G). Negative lambda is rejected
/// (p_success throws) — it would mean probabilities above 1.
struct FailureModel {
  double lambda = 0.0;

  /// True when this model can never produce a failure (lambda == 0).
  [[nodiscard]] bool failure_free() const noexcept { return lambda <= 0.0; }

  /// Probability that one execution attempt of a task of weight `a`
  /// completes without a silent error: exp(-lambda * a). Throws
  /// std::invalid_argument for negative `a` or negative lambda.
  [[nodiscard]] double p_success(double a) const;

  /// Probability that one attempt fails: 1 - exp(-lambda * a).
  [[nodiscard]] double p_fail(double a) const;

  /// Expected duration of a task of weight `a` under the retry model:
  ///   TwoState:  a * (1 + (1 - e^{-lambda a}))
  ///   Geometric: a * e^{lambda a}   (mean of a * geometric(p))
  [[nodiscard]] double expected_duration(double a, RetryModel model) const;

  /// Mean time between errors, 1 / lambda (infinity when lambda == 0).
  [[nodiscard]] double mtbf() const;
};

/// Section V-C calibration: choose lambda so that a task of *average*
/// weight a-bar fails with probability pfail:  pfail = 1 - e^{-lambda a_bar}
/// => lambda = -ln(1 - pfail) / a_bar. Requires pfail in [0, 1) and
/// a_bar > 0. pfail == 0 yields lambda == 0, the explicit zero-failure
/// model (see FailureModel) — valid as a sweep baseline.
[[nodiscard]] double lambda_for_pfail(double pfail, double mean_weight);

/// Convenience: calibrate directly from a DAG's mean task weight.
[[nodiscard]] FailureModel calibrate(const graph::Dag& g, double pfail);

/// The paper's sanity narrative: for a platform of `processors` processors
/// with aggregate error rate `lambda`, the per-processor MTBF in days.
/// (pfail = 0.01 with a-bar = 0.15 s gives ~17 days on 100k processors.)
[[nodiscard]] double per_processor_mtbf_days(double lambda,
                                             double processors);

}  // namespace expmk::core
