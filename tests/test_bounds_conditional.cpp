// Tests for core/bounds (analytic envelope) and mc/conditional
// (zero-failure-stratum Monte Carlo).

#include <gtest/gtest.h>

#include <cmath>

#include "core/bounds.hpp"
#include "core/exact.hpp"
#include "core/first_order.hpp"
#include "gen/cholesky.hpp"
#include "gen/random_dags.hpp"
#include "mc/conditional.hpp"
#include "mc/engine.hpp"
#include "test_helpers.hpp"

namespace {

using expmk::core::exact_two_state;
using expmk::core::FailureModel;
using expmk::core::makespan_bounds;
using expmk::mc::ConditionalMcConfig;
using expmk::mc::run_conditional_monte_carlo;
using expmk::test::uniform_scenario;

TEST(Bounds, EnvelopeContainsExactOnEnumerableGraphs) {
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    const auto g = expmk::gen::erdos_dag(12, 0.3, seed);
    const auto sc = uniform_scenario(g, FailureModel{0.2});
    expmk::exp::Workspace ws;
    const auto b = makespan_bounds(sc, ws);
    const double exact = exact_two_state(sc, ws);
    EXPECT_LE(b.failure_free, exact + 1e-12) << seed;
    EXPECT_LE(b.jensen_lower, exact + 1e-9) << seed;
    EXPECT_GE(b.level_upper, exact - 1e-9) << seed;
    EXPECT_GE(b.jensen_lower, b.failure_free - 1e-12) << seed;
  }
}

TEST(Bounds, ChainBoundsAreTight) {
  // On a chain every level holds one task: both Jensen and the level
  // bound are exact.
  const auto g = expmk::gen::uniform_chain(6, 0.5);
  const auto sc = uniform_scenario(g, FailureModel{0.3});
  expmk::exp::Workspace ws;
  const auto b = makespan_bounds(sc, ws);
  const double exact = exact_two_state(sc, ws);
  EXPECT_NEAR(b.jensen_lower, exact, 1e-12);
  EXPECT_NEAR(b.level_upper, exact, 1e-12);
}

TEST(Bounds, IndependentTasksUpperIsTight) {
  // All tasks in one level: the level bound IS E[max], i.e. exact.
  const auto g = expmk::gen::independent_tasks(8, 3);
  const auto sc = uniform_scenario(g, FailureModel{0.4});
  expmk::exp::Workspace ws;
  const auto b = makespan_bounds(sc, ws);
  EXPECT_NEAR(b.level_upper, exact_two_state(sc, ws), 1e-9);
  // Jensen is strictly loose here (max of means < mean of max).
  EXPECT_LT(b.jensen_lower, b.level_upper);
}

TEST(Bounds, FirstOrderRespectsEnvelopeAtSmallLambda) {
  const auto g = expmk::gen::cholesky_dag(5);
  const auto sc = uniform_scenario(g, 0.001);
  expmk::exp::Workspace ws;
  const auto b = makespan_bounds(sc, ws);
  const double fo = expmk::core::first_order(sc, ws).expected_makespan();
  EXPECT_GE(fo, b.failure_free);
  EXPECT_LE(fo, b.level_upper * (1.0 + 1e-9));
}

TEST(Bounds, ZeroLambdaCollapsesEverything) {
  const auto g = expmk::test::diamond(1.0, 2.0, 3.0, 4.0);
  expmk::exp::Workspace ws;
  const auto b = makespan_bounds(uniform_scenario(g, FailureModel{0.0}), ws);
  EXPECT_DOUBLE_EQ(b.failure_free, 8.0);
  EXPECT_DOUBLE_EQ(b.jensen_lower, 8.0);
  // Level bound remains a decomposition bound even deterministically:
  // levels {A}, {B, C}, {D} -> 1 + 3 + 4 = 8 here (C dominates B).
  EXPECT_DOUBLE_EQ(b.level_upper, 8.0);
}

TEST(ConditionalMc, MatchesExactWithinCi) {
  const auto g = expmk::test::diamond(0.4, 0.3, 0.5, 0.2);
  const FailureModel m{0.1};
  const auto sc = uniform_scenario(g, m);
  ConditionalMcConfig cfg;
  cfg.trials = 100'000;
  const auto r = run_conditional_monte_carlo(sc, cfg);
  expmk::exp::Workspace ws;
  const double exact = exact_two_state(sc, ws);
  EXPECT_NEAR(r.mean, exact, 4.0 * r.ci95_half_width + 1e-9);
  // p0 is exact.
  double p0 = 1.0;
  for (expmk::graph::TaskId i = 0; i < g.task_count(); ++i) {
    p0 *= m.p_success(g.weight(i));
  }
  EXPECT_NEAR(r.p_zero_failures, p0, 1e-15);
  EXPECT_GE(r.conditional_mean, r.critical_path);
}

TEST(ConditionalMc, Deterministic) {
  const auto g = expmk::gen::cholesky_dag(3);
  const auto sc = uniform_scenario(g, 0.01);
  ConditionalMcConfig cfg;
  cfg.trials = 5'000;
  const auto a = run_conditional_monte_carlo(sc, cfg);
  const auto b = run_conditional_monte_carlo(sc, cfg);
  EXPECT_DOUBLE_EQ(a.mean, b.mean);
}

TEST(ConditionalMc, ZeroLambdaIsAnalytic) {
  const auto g = expmk::gen::cholesky_dag(3);
  const auto r =
      run_conditional_monte_carlo(uniform_scenario(g, FailureModel{0.0}));
  EXPECT_DOUBLE_EQ(r.mean, r.critical_path);
  EXPECT_DOUBLE_EQ(r.std_error, 0.0);
  EXPECT_EQ(r.trials, 0u);
}

TEST(ConditionalMc, BeatsPlainMcAtLowPfail) {
  // Equal trial counts: the conditional estimator's CI should be several
  // times tighter at pfail = 1e-3 (most plain trials are zero-failure).
  const auto g = expmk::gen::cholesky_dag(6);
  const auto sc = uniform_scenario(g, 0.001);

  expmk::mc::McConfig plain_cfg;
  plain_cfg.trials = 30'000;
  const auto plain = expmk::mc::run_monte_carlo(sc, plain_cfg);

  ConditionalMcConfig cond_cfg;
  cond_cfg.trials = 30'000;
  const auto cond = run_conditional_monte_carlo(sc, cond_cfg);

  EXPECT_LT(cond.std_error, plain.std_error / 2.0);
  // And both agree with each other within CIs.
  EXPECT_NEAR(cond.mean, plain.mean,
              4.0 * (plain.ci95_half_width + cond.ci95_half_width));
}

TEST(ConditionalMc, ZeroTrialsThrowsInsteadOfClamping) {
  const auto sc = uniform_scenario(expmk::test::diamond(), FailureModel{0.1});
  ConditionalMcConfig cfg;
  cfg.trials = 0;
  EXPECT_THROW((void)run_conditional_monte_carlo(sc, cfg),
               std::invalid_argument);
  cfg.trials = 10;
  cfg.max_rejections_per_trial = 0;
  EXPECT_THROW((void)run_conditional_monte_carlo(sc, cfg),
               std::invalid_argument);
}

TEST(ConditionalMc, MicroscopicFailureProbabilityCensorsEveryTrial) {
  // 1 - p0 ~ 3e-15: no redraw will ever produce a failure, so every trial
  // must be censored — NOT converted into a fabricated failure-free
  // sample (the old fallback), which polluted the conditional statistics.
  const auto g = expmk::gen::uniform_chain(3, 1.0);
  ConditionalMcConfig cfg;
  cfg.trials = 200;
  cfg.max_rejections_per_trial = 20;
  const auto r =
      run_conditional_monte_carlo(uniform_scenario(g, FailureModel{1e-15}),
                                  cfg);
  EXPECT_EQ(r.censored_trials, 200u);
  EXPECT_EQ(r.trials, 0u);  // zero accepted conditional samples
  EXPECT_DOUBLE_EQ(r.conditional_mean, r.critical_path);
  EXPECT_NEAR(r.mean, r.critical_path, 1e-12);
  EXPECT_DOUBLE_EQ(r.std_error, 0.0);
}

TEST(ConditionalMc, CensoredTrialsDoNotBiasConditionalMean) {
  // Cap the rejection loop at ONE redraw: a trial is censored exactly when
  // its single pattern draw has no failure (probability p0 ~ 0.5 here), so
  // about half the trials censor. The old fallback pushed d(G) into the
  // conditional statistics for every censored trial, dragging
  // conditional_mean (and mean through it) far below the exact value.
  const auto g = expmk::test::diamond(0.4, 0.3, 0.5, 0.2);
  const auto sc = uniform_scenario(g, FailureModel{0.5});
  ConditionalMcConfig cfg;
  cfg.trials = 60'000;
  cfg.max_rejections_per_trial = 1;
  const auto r = run_conditional_monte_carlo(sc, cfg);

  EXPECT_EQ(r.trials + r.censored_trials, 60'000u);
  const double p0 = r.p_zero_failures;
  EXPECT_NEAR(static_cast<double>(r.censored_trials) / 60'000.0, p0, 0.01);

  expmk::exp::Workspace ws;
  const double exact = exact_two_state(sc, ws);
  const double cond_exact =
      (exact - p0 * r.critical_path) / (1.0 - p0);
  const double cond_stderr = r.std_error / (1.0 - p0);
  EXPECT_NEAR(r.conditional_mean, cond_exact, 5.0 * cond_stderr + 1e-9);
  EXPECT_NEAR(r.mean, exact, 5.0 * r.std_error + 1e-9);
}

TEST(ConditionalMc, RejectionCountMatchesTheory) {
  // Expected redraws per accepted trial = 1/(1-p0) - 1 = p0/(1-p0).
  const auto g = expmk::gen::cholesky_dag(4);
  ConditionalMcConfig cfg;
  cfg.trials = 20'000;
  const auto r = run_conditional_monte_carlo(uniform_scenario(g, 0.001), cfg);
  const double p0 = r.p_zero_failures;
  const double expected = p0 / (1.0 - p0);
  EXPECT_NEAR(r.avg_rejections, expected, 0.15 * expected);
}

}  // namespace
