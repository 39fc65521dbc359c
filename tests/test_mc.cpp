// Tests for the Monte-Carlo engine: reproducibility, thread-count
// invariance, convergence to exact oracles, retry-model behavior, and the
// control-variate estimator.

#include <gtest/gtest.h>

#include <cmath>

#include "core/exact.hpp"
#include "core/first_order.hpp"
#include "gen/cholesky.hpp"
#include "gen/lu.hpp"
#include "gen/random_dags.hpp"
#include "graph/csr.hpp"
#include "mc/engine.hpp"
#include "test_helpers.hpp"

namespace {

using expmk::core::exact_geometric;
using expmk::core::exact_two_state;
using expmk::core::FailureModel;
using expmk::core::RetryModel;
using expmk::mc::McConfig;
using expmk::mc::run_monte_carlo;
using expmk::test::uniform_scenario;

constexpr auto kGeometric = RetryModel::Geometric;

TEST(MonteCarlo, ZeroTrialsThrowsInsteadOfClamping) {
  // trials == 0 is a misconfiguration (sweep configs are user-supplied);
  // the engine used to clamp it to 1 silently.
  const auto g = expmk::test::diamond();
  McConfig cfg;
  cfg.trials = 0;
  EXPECT_THROW((void)run_monte_carlo(
                   uniform_scenario(g, FailureModel{0.1}, kGeometric), cfg),
               std::invalid_argument);
}

TEST(MonteCarlo, DeterministicForFixedSeed) {
  const auto g = expmk::test::diamond(0.4, 0.3, 0.5, 0.2);
  const auto sc = uniform_scenario(g, FailureModel{0.1}, kGeometric);
  McConfig cfg;
  cfg.trials = 5000;
  cfg.seed = 7;
  const auto r1 = run_monte_carlo(sc, cfg);
  const auto r2 = run_monte_carlo(sc, cfg);
  EXPECT_DOUBLE_EQ(r1.mean, r2.mean);
  EXPECT_DOUBLE_EQ(r1.variance, r2.variance);
}

TEST(MonteCarlo, ThreadCountDoesNotChangeEstimate) {
  const auto g = expmk::gen::cholesky_dag(3);
  const auto sc = uniform_scenario(g, FailureModel{0.05}, kGeometric);
  McConfig cfg;
  cfg.trials = 4000;
  cfg.seed = 11;
  cfg.threads = 1;
  const auto serial = run_monte_carlo(sc, cfg);
  cfg.threads = 4;
  const auto parallel = run_monte_carlo(sc, cfg);
  // Per-trial counter-based streams: identical samples, so identical
  // means up to summation order (Welford merge is exact per partition;
  // partitions differ, so allow only float-noise).
  EXPECT_NEAR(serial.mean, parallel.mean, 1e-12 * serial.mean);
  EXPECT_EQ(serial.trials, parallel.trials);
}

TEST(MonteCarlo, ConvergesToExactTwoState) {
  const auto g = expmk::test::diamond(0.4, 0.3, 0.5, 0.2);
  const auto sc = uniform_scenario(g, FailureModel{0.2});
  McConfig cfg;
  cfg.trials = 200'000;
  const auto r = run_monte_carlo(sc, cfg);
  expmk::exp::Workspace ws;
  const double exact = exact_two_state(sc, ws);
  EXPECT_NEAR(r.mean, exact, 4.0 * r.ci95_half_width + 1e-9)
      << "mean=" << r.mean << " exact=" << exact;
}

TEST(MonteCarlo, ConvergesToExactGeometric) {
  const auto g = expmk::test::diamond(0.4, 0.3, 0.5, 0.2);
  const auto sc = uniform_scenario(g, FailureModel{0.4}, kGeometric);
  McConfig cfg;
  cfg.trials = 200'000;
  const auto r = run_monte_carlo(sc, cfg);
  expmk::exp::Workspace ws;
  const double exact = exact_geometric(sc, 12, ws);
  EXPECT_NEAR(r.mean, exact, 4.0 * r.ci95_half_width + 1e-6);
}

TEST(MonteCarlo, ZeroLambdaIsDeterministic) {
  const auto g = expmk::gen::cholesky_dag(3);
  McConfig cfg;
  cfg.trials = 100;
  const auto r =
      run_monte_carlo(uniform_scenario(g, FailureModel{0.0}, kGeometric), cfg);
  EXPECT_DOUBLE_EQ(r.variance, 0.0);
  EXPECT_DOUBLE_EQ(r.min, r.max);
}

TEST(MonteCarlo, GeometricMeanExceedsTwoState) {
  const auto g = expmk::gen::cholesky_dag(3);
  const FailureModel m{1.0};  // huge rate: retries matter
  McConfig cfg;
  cfg.trials = 50'000;
  const auto ts = run_monte_carlo(uniform_scenario(g, m), cfg);
  const auto geo = run_monte_carlo(uniform_scenario(g, m, kGeometric), cfg);
  EXPECT_GT(geo.mean, ts.mean);
}

TEST(MonteCarlo, CiShrinksWithTrials) {
  const auto g = expmk::test::diamond(0.4, 0.3, 0.5, 0.2);
  const auto sc = uniform_scenario(g, FailureModel{0.2}, kGeometric);
  McConfig small, large;
  small.trials = 2000;
  large.trials = 32000;
  const auto rs = run_monte_carlo(sc, small);
  const auto rl = run_monte_carlo(sc, large);
  EXPECT_GT(rs.ci95_half_width, rl.ci95_half_width);
  EXPECT_GT(rl.ci99_half_width, rl.ci95_half_width);
}

TEST(MonteCarlo, MeanBracketsAreSane) {
  const auto g = expmk::gen::lu_dag(3);
  McConfig cfg;
  cfg.trials = 20'000;
  const auto r = run_monte_carlo(uniform_scenario(g, 0.01, kGeometric), cfg);
  const double d = expmk::graph::critical_path_length(g);
  EXPECT_GE(r.min, d - 1e-9);  // every trial at least the failure-free CP
  EXPECT_GE(r.mean, d);
  EXPECT_LE(r.mean, 2.0 * d);  // and nowhere near all-tasks-failed
  EXPECT_GE(r.max, r.mean);
}

TEST(MonteCarlo, ControlVariateIsUnbiasedAndTighter) {
  const auto g = expmk::gen::cholesky_dag(3);
  const auto sc = uniform_scenario(g, 0.01, kGeometric);
  McConfig plain, cv;
  plain.trials = cv.trials = 100'000;
  cv.control_variate = true;
  const auto rp = run_monte_carlo(sc, plain);
  const auto rc = run_monte_carlo(sc, cv);
  // Same trials & seed: CV must agree within the (tight) CI and reduce
  // variance.
  EXPECT_NEAR(rc.mean, rp.mean, 4.0 * rp.ci95_half_width);
  EXPECT_GT(rc.variance_reduction, 1.0);
  EXPECT_LT(rc.std_error, rp.std_error);
  EXPECT_DOUBLE_EQ(rc.plain_mean, rp.mean);
}

TEST(MonteCarlo, CapturesSamplesOnRequest) {
  const auto g = expmk::test::diamond(0.4, 0.3, 0.5, 0.2);
  McConfig cfg;
  cfg.trials = 1000;
  cfg.capture_samples = true;
  const auto r =
      run_monte_carlo(uniform_scenario(g, FailureModel{0.2}, kGeometric), cfg);
  ASSERT_EQ(r.samples.size(), 1000u);
  double mean = 0.0;
  for (const double s : r.samples) mean += s;
  mean /= 1000.0;
  EXPECT_NEAR(mean, r.mean, 1e-9);
}

TEST(MonteCarlo, RecordsTiming) {
  const auto g = expmk::test::diamond();
  McConfig cfg;
  cfg.trials = 1000;
  const auto r =
      run_monte_carlo(uniform_scenario(g, FailureModel{0.1}, kGeometric), cfg);
  EXPECT_GE(r.seconds, 0.0);
  EXPECT_EQ(r.trials, 1000u);
}

}  // namespace
