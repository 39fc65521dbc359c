// Tests for core/dvfs: the paper's equation (1) error-rate model and the
// speed sweep built on the first-order estimator.

#include <gtest/gtest.h>

#include <cmath>

#include "core/dvfs.hpp"
#include "core/first_order.hpp"
#include "gen/cholesky.hpp"
#include "test_helpers.hpp"

namespace {

using expmk::core::best_speed_for_makespan;
using expmk::core::DvfsModel;
using expmk::core::dvfs_sweep;

TEST(DvfsModel, Equation1Endpoints) {
  const DvfsModel m{.lambda0 = 1e-5, .sensitivity = 3.0, .smin = 0.5,
                    .smax = 1.0};
  // At full speed: lambda0. At smin: lambda0 * 10^d.
  EXPECT_NEAR(m.lambda(1.0), 1e-5, 1e-18);
  EXPECT_NEAR(m.lambda(0.5), 1e-5 * 1000.0, 1e-12);
  // Halfway in speed: 10^{d/2}.
  EXPECT_NEAR(m.lambda(0.75), 1e-5 * std::pow(10.0, 1.5), 1e-12);
}

TEST(DvfsModel, MonotoneDecreasingInSpeed) {
  const DvfsModel m;
  double prev = m.lambda(m.smin);
  for (int i = 1; i <= 10; ++i) {
    const double s = m.smin + (m.smax - m.smin) * i / 10.0;
    const double cur = m.lambda(s);
    EXPECT_LT(cur, prev);
    prev = cur;
  }
}

TEST(DvfsModel, RejectsBadInputs) {
  DvfsModel m;
  EXPECT_THROW((void)m.lambda(0.4), std::invalid_argument);
  EXPECT_THROW((void)m.lambda(1.1), std::invalid_argument);
  m.smin = 1.0;
  m.smax = 1.0;
  EXPECT_THROW((void)m.lambda(1.0), std::invalid_argument);
  m = DvfsModel{};
  m.lambda0 = -1.0;
  EXPECT_THROW((void)m.lambda(0.9), std::invalid_argument);
}

TEST(DvfsSweep, FailureFreeMakespanScalesInversely) {
  const auto g = expmk::gen::cholesky_dag(4);
  const DvfsModel m{.lambda0 = 1e-9, .sensitivity = 1.0, .smin = 0.5,
                    .smax = 1.0};
  const auto sweep = dvfs_sweep(g, m, {0.5, 1.0});
  ASSERT_EQ(sweep.size(), 2u);
  EXPECT_NEAR(sweep[0].failure_free_makespan,
              2.0 * sweep[1].failure_free_makespan, 1e-9);
}

TEST(DvfsSweep, NegligibleErrorsMakeFullSpeedBest) {
  const auto g = expmk::gen::cholesky_dag(4);
  const DvfsModel m{.lambda0 = 1e-12, .sensitivity = 1.0, .smin = 0.5,
                    .smax = 1.0};
  EXPECT_DOUBLE_EQ(
      best_speed_for_makespan(g, m, {0.5, 0.75, 1.0}), 1.0);
}

TEST(DvfsSweep, SweepAgreesWithDirectFirstOrder) {
  const auto g = expmk::test::diamond(0.4, 0.3, 0.5, 0.2);
  const DvfsModel m{.lambda0 = 0.01, .sensitivity = 2.0, .smin = 0.5,
                    .smax = 1.0};
  const double s = 0.8;
  const auto sweep = dvfs_sweep(g, m, {s});
  // Manual: scale weights by 1/s, use lambda(s).
  expmk::graph::Dag scaled = g;
  for (expmk::graph::TaskId i = 0; i < g.task_count(); ++i) {
    scaled.set_weight(i, g.weight(i) / s);
  }
  expmk::exp::Workspace ws;
  const auto fo = expmk::core::first_order(
      expmk::test::uniform_scenario(scaled,
                                    expmk::core::FailureModel{m.lambda(s)}),
      ws);
  EXPECT_NEAR(sweep[0].expected_makespan, fo.expected_makespan(), 1e-12);
  EXPECT_NEAR(sweep[0].lambda, m.lambda(s), 1e-15);
}

TEST(DvfsSweep, HighSensitivityPunishesLowSpeed) {
  // With a steep error-rate curve, the expected makespan at smin must
  // exceed the pure time dilation d(G)/smin — re-executions pile up.
  const auto g = expmk::gen::cholesky_dag(4);
  const DvfsModel m{.lambda0 = 0.05, .sensitivity = 4.0, .smin = 0.5,
                    .smax = 1.0};
  const auto sweep = dvfs_sweep(g, m, {0.5});
  EXPECT_GT(sweep[0].expected_makespan,
            sweep[0].failure_free_makespan * 1.02);
}

TEST(DvfsSweep, EnergyAtFullSpeedIsUnity) {
  const auto g = expmk::gen::cholesky_dag(3);
  const DvfsModel m;
  const auto sweep = dvfs_sweep(g, m, {1.0});
  EXPECT_NEAR(sweep[0].relative_energy, 1.0, 1e-12);
}

TEST(DvfsSweep, SlowerIsCheaperWhenErrorsAreMild) {
  const auto g = expmk::gen::cholesky_dag(3);
  const DvfsModel m{.lambda0 = 1e-8, .sensitivity = 1.0, .smin = 0.5,
                    .smax = 1.0};
  const auto sweep = dvfs_sweep(g, m, {0.5, 1.0});
  // Energy ~ s^2 (per unit work): half speed -> ~quarter energy.
  EXPECT_LT(sweep[0].relative_energy, 0.5 * sweep[1].relative_energy);
}

TEST(DvfsSweep, EmptySpeedListThrows) {
  const auto g = expmk::gen::cholesky_dag(3);
  EXPECT_THROW((void)dvfs_sweep(g, DvfsModel{}, {}), std::invalid_argument);
}

}  // namespace
