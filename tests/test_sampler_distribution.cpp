// Cross-substrate validation: the Monte-Carlo trial sampler (mc/trial)
// and the analytic distribution factories (prob/discrete_distribution)
// describe the SAME task-duration laws. These tests compare empirical
// frequencies against the analytic CDFs — a disagreement here would mean
// the ground truth and the estimators are silently targeting different
// models.

#include <gtest/gtest.h>

#include <cmath>
#include <map>

#include "dist_ops.hpp"
#include "core/failure_model.hpp"
#include "mc/trial.hpp"
#include "prob/discrete_distribution.hpp"
#include "prob/rng.hpp"
#include "test_helpers.hpp"

namespace {

using D = expmk::prob::DiscreteDistribution;
using expmk::core::FailureModel;
using expmk::core::RetryModel;
using expmk::test::uniform_scenario;

/// Samples one task's duration `n` times via the trial sampler and
/// returns value -> frequency.
std::map<double, double> empirical_law(double weight, double lambda,
                                       RetryModel retry, int n) {
  expmk::graph::Dag g;
  g.add_task(weight);
  const auto sc = uniform_scenario(g, FailureModel{lambda}, retry);
  std::map<double, int> counts;
  std::vector<double> durations(g.task_count());
  for (int t = 0; t < n; ++t) {
    expmk::prob::McRng rng(42, static_cast<std::uint64_t>(t));
    expmk::mc::sample_durations(sc, rng, durations);
    ++counts[durations[0]];
  }
  std::map<double, double> freq;
  for (const auto& [v, c] : counts) {
    freq[v] = static_cast<double>(c) / n;
  }
  return freq;
}

TEST(SamplerVsDistribution, TwoStateFrequenciesMatch) {
  const double a = 0.6, lambda = 0.5;
  const double p = std::exp(-lambda * a);
  const auto freq = empirical_law(a, lambda, RetryModel::TwoState, 200'000);
  ASSERT_EQ(freq.size(), 2u);
  EXPECT_NEAR(freq.at(a), p, 0.005);
  EXPECT_NEAR(freq.at(2 * a), 1.0 - p, 0.005);

  const D analytic = D::two_state(a, p);
  EXPECT_NEAR(analytic.atoms()[0].prob, p, 1e-12);
}

TEST(SamplerVsDistribution, GeometricFrequenciesMatchTruncatedLaw) {
  const double a = 1.0, lambda = 0.7;  // harsh: retries frequent
  const double p = std::exp(-lambda * a);
  const auto freq =
      empirical_law(a, lambda, RetryModel::Geometric, 200'000);
  const D analytic = expmk::dist_ops::geometric_reexec(a, p, 64);
  // Compare the first few atoms (k = 1..4 executions).
  for (int k = 1; k <= 4; ++k) {
    const double expect = analytic.atoms()[static_cast<std::size_t>(k - 1)].prob;
    const auto it = freq.find(a * k);
    ASSERT_NE(it, freq.end()) << "no samples with " << k << " executions";
    EXPECT_NEAR(it->second, expect, 0.006) << k;
  }
}

TEST(SamplerVsDistribution, GeometricMeanMatchesClosedForm) {
  const double a = 0.8, lambda = 0.4;
  const double p = std::exp(-lambda * a);
  const auto freq =
      empirical_law(a, lambda, RetryModel::Geometric, 200'000);
  double mean = 0.0;
  for (const auto& [v, f] : freq) mean += v * f;
  EXPECT_NEAR(mean, a / p, 0.01 * a / p);
}

TEST(SamplerVsDistribution, ZeroLambdaIsDeterministic) {
  const auto freq = empirical_law(1.0, 0.0, RetryModel::Geometric, 1'000);
  ASSERT_EQ(freq.size(), 1u);
  EXPECT_DOUBLE_EQ(freq.begin()->first, 1.0);
}

TEST(SamplerVsDistribution, CapBoundsGeometricExecutions) {
  // With an absurd rate every attempt fails; the cap must bound durations.
  expmk::graph::Dag g;
  g.add_task(1.0);
  const auto sc =
      uniform_scenario(g, FailureModel{50.0}, RetryModel::Geometric);
  constexpr double kCap = expmk::mc::kMaxExecutions;
  std::vector<double> durations(g.task_count());
  double max_seen = 0.0;
  for (int t = 0; t < 2'000; ++t) {
    expmk::prob::McRng rng(7, static_cast<std::uint64_t>(t));
    expmk::mc::sample_durations(sc, rng, durations);
    max_seen = std::max(max_seen, durations[0]);
  }
  EXPECT_LE(max_seen, kCap);
  EXPECT_GT(max_seen, kCap - 1.0);  // the cap is actually reached at this rate
}

TEST(SamplerVsDistribution, ControlStatisticMatchesDefinition) {
  // Z = sum a_i (executions_i - 1): with a single task, duration = a * e
  // implies Z = duration - a, exactly.
  expmk::graph::Dag g;
  g.add_task(0.5);
  // Checked lane by lane on the engine's trial-lane kernel.
  const auto sc =
      uniform_scenario(g, FailureModel{1.0}, RetryModel::Geometric);
  std::vector<double> finish(g.task_count() * expmk::mc::kTrialLanes);
  for (std::uint64_t t0 = 0; t0 < 1'000; t0 += expmk::mc::kTrialLanes) {
    const auto obs = expmk::mc::run_trial_lanes(sc, 3, t0, finish);
    for (std::size_t l = 0; l < expmk::mc::kTrialLanes; ++l) {
      EXPECT_NEAR(obs.control[l], obs.makespan[l] - 0.5, 1e-12);
    }
  }
}

}  // namespace
