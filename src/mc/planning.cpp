#include "mc/planning.hpp"

#include <cmath>
#include <stdexcept>
#include <utility>

namespace expmk::mc {

namespace {

// Every check is written so that NaN fails it: a NaN target would
// otherwise flow into ceil_to_u64's float-to-int cast (undefined).
void check_targets(double epsilon, double confidence) {
  if (!(epsilon > 0.0) || !std::isfinite(epsilon)) {
    throw std::invalid_argument("trial planning: epsilon must be finite and > 0");
  }
  if (!(confidence > 0.0 && confidence < 1.0)) {
    throw std::invalid_argument(
        "trial planning: confidence must be in (0,1)");
  }
}

std::uint64_t ceil_to_u64(double x) {
  if (std::isnan(x)) {
    throw std::invalid_argument("trial planning: required trials is NaN");
  }
  if (x < 1.0) return 1;
  if (x > 9e18) {
    throw std::overflow_error("trial planning: required trials overflow");
  }
  return static_cast<std::uint64_t>(std::ceil(x));
}

}  // namespace

std::uint64_t hoeffding_trials(double lo, double hi, double epsilon,
                               double confidence) {
  check_targets(epsilon, confidence);
  if (!(hi > lo) || !std::isfinite(lo) || !std::isfinite(hi)) {
    throw std::invalid_argument("hoeffding_trials: need finite lo < hi");
  }
  const double alpha = 1.0 - confidence;
  const double range = hi - lo;
  return ceil_to_u64(std::log(2.0 / alpha) * range * range /
                     (2.0 * epsilon * epsilon));
}

std::uint64_t clt_trials(double sample_stddev, double epsilon,
                         double confidence) {
  check_targets(epsilon, confidence);
  if (!(sample_stddev >= 0.0) || !std::isfinite(sample_stddev)) {
    throw std::invalid_argument("clt_trials: stddev must be finite and >= 0");
  }
  if (sample_stddev == 0.0) return 1;
  const double z = prob::inverse_normal_cdf(0.5 + confidence / 2.0);
  const double n = z * sample_stddev / epsilon;
  return ceil_to_u64(n * n);
}

std::uint64_t plan_trials(const prob::RunningStats& pilot,
                          double relative_error, double confidence) {
  if (pilot.count() < 2) {
    throw std::invalid_argument("plan_trials: pilot needs >= 2 samples");
  }
  if (pilot.mean() <= 0.0) {
    throw std::invalid_argument("plan_trials: non-positive pilot mean");
  }
  return clt_trials(pilot.stddev(), relative_error * pilot.mean(),
                    confidence);
}

PilotPlan plan_with_pilot(const scenario::Scenario& sc,
                          double relative_error, double confidence,
                          const McConfig& pilot_config) {
  check_targets(relative_error, confidence);
  PilotPlan out;
  out.pilot = run_monte_carlo(sc, pilot_config);
  if (out.pilot.mean <= 0.0) {
    throw std::invalid_argument("plan_with_pilot: non-positive pilot mean");
  }
  out.planned_trials = clt_trials(std::sqrt(out.pilot.variance),
                                  relative_error * out.pilot.mean,
                                  confidence);
  return out;
}

}  // namespace expmk::mc
