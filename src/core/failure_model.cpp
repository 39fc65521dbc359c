#include "core/failure_model.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>

namespace expmk::core {

double FailureModel::p_success(double a) const {
  if (a < 0.0) throw std::invalid_argument("p_success: negative weight");
  if (lambda < 0.0) {
    // A negative rate would make p_success exceed 1 and silently corrupt
    // every probability downstream (the exact oracles would enumerate
    // negative-mass states). lambda == 0 is the explicit "never fails"
    // model and is fine.
    throw std::invalid_argument("p_success: negative lambda");
  }
  return std::exp(-lambda * a);
}

double FailureModel::p_fail(double a) const { return 1.0 - p_success(a); }

double FailureModel::expected_duration(double a, RetryModel model) const {
  switch (model) {
    case RetryModel::TwoState:
      return a * (2.0 - p_success(a));
    case RetryModel::Geometric:
      // Attempts ~ Geometric(p = e^{-lambda a}), mean 1/p.
      return a * std::exp(lambda * a);
  }
  return a;
}

double FailureModel::mtbf() const {
  if (lambda <= 0.0) return std::numeric_limits<double>::infinity();
  return 1.0 / lambda;
}

double lambda_for_pfail(double pfail, double mean_weight) {
  if (pfail < 0.0 || pfail >= 1.0) {
    throw std::invalid_argument("lambda_for_pfail: pfail must be in [0,1)");
  }
  if (mean_weight <= 0.0) {
    throw std::invalid_argument("lambda_for_pfail: mean weight must be > 0");
  }
  // pfail == 0 maps to lambda == 0 by design: the explicit zero-failure
  // model. Every consumer treats lambda == 0 the same way — p_success is
  // exactly 1, mtbf() is infinite, the exact oracles and MC engines
  // produce exactly d(G) — so a sweep may include pfail = 0 as its
  // deterministic baseline row (tests/test_sweep.cpp pins this
  // end-to-end).
  return -std::log1p(-pfail) / mean_weight;
}

FailureModel calibrate(const graph::Dag& g, double pfail) {
  return FailureModel{lambda_for_pfail(pfail, g.mean_weight())};
}

double per_processor_mtbf_days(double lambda, double processors) {
  if (processors <= 0.0) {
    throw std::invalid_argument("per_processor_mtbf_days: processors > 0");
  }
  if (lambda <= 0.0) return std::numeric_limits<double>::infinity();
  const double platform_mtbf_seconds = 1.0 / lambda;
  return platform_mtbf_seconds * processors / 86400.0;
}

}  // namespace expmk::core
