// Unit tests for core/failure_model: probabilities, calibration (the
// paper's Section V-C narrative values), and expected durations.

#include <gtest/gtest.h>

#include <cmath>

#include "core/failure_model.hpp"
#include "gen/cholesky.hpp"
#include "test_helpers.hpp"

namespace {

using expmk::core::calibrate;
using expmk::core::FailureModel;
using expmk::core::lambda_for_pfail;
using expmk::core::per_processor_mtbf_days;
using expmk::core::RetryModel;

TEST(FailureModel, SuccessProbabilityIsExponential) {
  const FailureModel m{0.5};
  EXPECT_NEAR(m.p_success(2.0), std::exp(-1.0), 1e-15);
  EXPECT_NEAR(m.p_fail(2.0), 1.0 - std::exp(-1.0), 1e-15);
  EXPECT_DOUBLE_EQ(m.p_success(0.0), 1.0);
  EXPECT_THROW((void)m.p_success(-1.0), std::invalid_argument);
}

TEST(FailureModel, ZeroLambdaNeverFails) {
  const FailureModel m{0.0};
  EXPECT_DOUBLE_EQ(m.p_success(100.0), 1.0);
  EXPECT_TRUE(std::isinf(m.mtbf()));
  EXPECT_TRUE(m.failure_free());
  EXPECT_FALSE(FailureModel{0.1}.failure_free());
}

TEST(FailureModel, NegativeLambdaIsRejected) {
  // lambda < 0 would yield p_success > 1 and corrupt every downstream
  // probability; only lambda == 0 is the legal "never fails" model.
  const FailureModel m{-0.1};
  EXPECT_THROW((void)m.p_success(1.0), std::invalid_argument);
}

TEST(FailureModel, ZeroPfailCalibratesToExplicitZeroFailureModel) {
  // pfail == 0 is the documented zero-failure path: lambda == 0 exactly,
  // every per-task success probability exactly 1.
  const auto g = expmk::gen::cholesky_dag(4);
  const auto m = calibrate(g, 0.0);
  EXPECT_DOUBLE_EQ(m.lambda, 0.0);
  EXPECT_TRUE(m.failure_free());
  const auto sc = expmk::test::uniform_scenario(g, m);
  for (const double p : sc.p_success_csr()) {
    EXPECT_DOUBLE_EQ(p, 1.0);
  }
}

TEST(FailureModel, CalibrationInvertsExactly) {
  const double abar = 0.15;
  for (const double pfail : {0.01, 0.001, 0.0001}) {
    const double lambda = lambda_for_pfail(pfail, abar);
    EXPECT_NEAR(1.0 - std::exp(-lambda * abar), pfail, 1e-15) << pfail;
  }
  EXPECT_THROW((void)lambda_for_pfail(1.0, abar), std::invalid_argument);
  EXPECT_THROW((void)lambda_for_pfail(-0.1, abar), std::invalid_argument);
  EXPECT_THROW((void)lambda_for_pfail(0.5, 0.0), std::invalid_argument);
}

TEST(FailureModel, PaperNarrativeNumbers) {
  // Section V-C: a-bar = 0.15 s and pfail = 0.01 give lambda ~ 0.067 and
  // MTBF ~ 14.9 s; on 100k processors that's ~17.27 days per processor.
  const double lambda = lambda_for_pfail(0.01, 0.15);
  EXPECT_NEAR(lambda, 0.067, 0.001);
  EXPECT_NEAR(FailureModel{lambda}.mtbf(), 14.9, 0.1);
  EXPECT_NEAR(per_processor_mtbf_days(lambda, 100'000.0), 17.27, 0.1);
  // pfail = 0.0001 -> ~4.7 years per processor.
  const double lambda_low = lambda_for_pfail(0.0001, 0.15);
  EXPECT_NEAR(per_processor_mtbf_days(lambda_low, 100'000.0) / 365.0, 4.7,
              0.1);
}

TEST(FailureModel, CalibrateUsesDagMeanWeight) {
  const auto g = expmk::gen::cholesky_dag(6);
  const auto m = calibrate(g, 0.01);
  EXPECT_NEAR(m.p_fail(g.mean_weight()), 0.01, 1e-12);
}

TEST(FailureModel, ExpectedDurationTwoState) {
  const FailureModel m{0.1};
  const double a = 2.0;
  const double p = m.p_success(a);
  EXPECT_NEAR(m.expected_duration(a, RetryModel::TwoState),
              a * p + 2.0 * a * (1.0 - p), 1e-12);
}

TEST(FailureModel, ExpectedDurationGeometricExceedsTwoState) {
  const FailureModel m{0.3};
  const double a = 2.0;
  EXPECT_GT(m.expected_duration(a, RetryModel::Geometric),
            m.expected_duration(a, RetryModel::TwoState));
  // They agree to O(lambda^2): ratio of the differences shrinks with
  // lambda.
  const FailureModel small{0.001};
  const double diff_small =
      small.expected_duration(a, RetryModel::Geometric) -
      small.expected_duration(a, RetryModel::TwoState);
  EXPECT_LT(diff_small, 1e-4);
}

TEST(FailureModel, SuccessProbabilitiesVector) {
  const auto g = expmk::test::diamond(1.0, 2.0, 3.0, 4.0);
  const FailureModel m{0.1};
  const auto sc = expmk::test::uniform_scenario(g, m);
  const auto p = sc.p_success_csr();
  ASSERT_EQ(p.size(), 4u);
  for (expmk::graph::TaskId i = 0; i < 4; ++i) {
    EXPECT_NEAR(p[sc.csr().position_of(i)], std::exp(-0.1 * g.weight(i)),
                1e-15);
  }
}

TEST(FailureModel, MtbfDaysInvalidArgs) {
  EXPECT_THROW((void)per_processor_mtbf_days(0.1, 0.0),
               std::invalid_argument);
  EXPECT_TRUE(std::isinf(per_processor_mtbf_days(0.0, 10.0)));
}

}  // namespace
