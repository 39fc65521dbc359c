// Tests for the self-tuning query planner (exp/plan.hpp):
//
//  * select() monotonicity — a tighter deadline never picks a
//    predicted-slower method, a tighter target never picks a
//    predicted-cheaper one (the file-comment contract);
//  * deadline semantics: whenever any capability-feasible method fits,
//    the choice is predicted under the deadline and marked feasible;
//  * delivered accuracy vs the exact oracle on a DAG x pfail x target
//    grid (all cells <= 24 tasks, so `exact` is available as truth);
//  * CostModel EWMA: correction moves toward the observed ratio, the
//    per-update ratio is clamped to [1/4, 4], disabled EWMA is a no-op;
//  * PlanBudget validation and the method-name round trip.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "core/failure_model.hpp"
#include "exp/evaluator.hpp"
#include "exp/plan.hpp"
#include "gen/random_dags.hpp"
#include "scenario/scenario.hpp"
#include "test_helpers.hpp"

namespace {

using expmk::core::calibrate;
using expmk::core::RetryModel;
using expmk::exp::CostFeatures;
using expmk::exp::CostModel;
using expmk::exp::EvaluatorRegistry;
using expmk::exp::kPlanMethodCount;
using expmk::exp::plan_features;
using expmk::exp::plan_method_from_name;
using expmk::exp::plan_method_name;
using expmk::exp::PlanBudget;
using expmk::exp::PlanChoice;
using expmk::exp::PlanMethod;
using expmk::exp::PlannedResult;
using expmk::exp::Planner;
using expmk::graph::Dag;
using expmk::scenario::FailureSpec;
using expmk::scenario::Scenario;

Scenario compile(const Dag& g, double pfail) {
  return Scenario::compile(g, FailureSpec(calibrate(g, pfail)),
                           RetryModel::TwoState);
}

/// A planner whose decisions are a pure function of the request (no
/// EWMA memory between calls) — what the determinism tests need.
Planner pure_planner() {
  Planner::Config cfg;
  cfg.enable_ewma = false;
  return Planner(cfg);
}

TEST(PlanMethodNames, RoundTripAndUnknowns) {
  for (std::size_t i = 0; i < kPlanMethodCount; ++i) {
    const auto m = static_cast<PlanMethod>(i);
    EXPECT_EQ(plan_method_from_name(plan_method_name(m)), m)
        << plan_method_name(m);
  }
  EXPECT_EQ(plan_method_from_name("bounds.lower"), PlanMethod::kBounds);
  EXPECT_EQ(plan_method_from_name("bounds.upper"), PlanMethod::kBounds);
  EXPECT_EQ(plan_method_from_name("no-such-method"), PlanMethod::kCount);
  EXPECT_EQ(plan_method_from_name(""), PlanMethod::kCount);
}

TEST(PlanSelect, DeadlineMonotonicity) {
  // As the deadline tightens the feasible set only shrinks, so the
  // chosen method's predicted cost must be non-increasing and its
  // predicted error non-decreasing (most-accurate-under-deadline picks
  // from a smaller set).
  const Scenario sc = compile(expmk::gen::erdos_dag(60, 0.08, 7), 0.01);
  const CostFeatures f = plan_features(sc);
  const Planner planner = pure_planner();

  double prev_cost = std::numeric_limits<double>::infinity();
  double prev_err = -1.0;
  bool prev_feasible = true;
  for (const double deadline :
       {1e9, 1e7, 1e6, 1e5, 1e4, 1e3, 1e2, 1e1, 1.0, 0.1}) {
    PlanBudget budget;
    budget.deadline_us = deadline;
    const PlanChoice c = planner.select(f, budget);
    if (c.feasible) {
      EXPECT_LE(c.predicted_us, deadline) << "deadline " << deadline;
      EXPECT_LE(c.predicted_us, prev_cost) << "deadline " << deadline;
      if (prev_feasible && prev_err >= 0.0) {
        EXPECT_GE(c.predicted_rel_err, prev_err) << "deadline " << deadline;
      }
      prev_cost = c.predicted_us;
      prev_err = c.predicted_rel_err;
    } else {
      // Once infeasible, every tighter deadline stays infeasible.
      prev_feasible = false;
    }
    if (!prev_feasible) EXPECT_FALSE(c.feasible) << "deadline " << deadline;
  }
}

TEST(PlanSelect, TargetMonotonicity) {
  // As the accuracy target tightens the feasible set only shrinks (and
  // the MC candidate only gets more expensive), so the cheapest
  // feasible pick's predicted cost must be non-decreasing.
  const Scenario sc = compile(expmk::gen::erdos_dag(60, 0.08, 7), 0.01);
  const CostFeatures f = plan_features(sc);
  const Planner planner = pure_planner();

  double prev_cost = -1.0;
  for (const double target : {0.05, 0.01, 1e-3, 1e-4, 1e-5, 1e-6}) {
    PlanBudget budget;
    budget.target_rel_err = target;
    const PlanChoice c = planner.select(f, budget);
    if (!c.feasible) continue;
    EXPECT_LE(c.predicted_rel_err, target) << "target " << target;
    EXPECT_GE(c.predicted_us, prev_cost) << "target " << target;
    prev_cost = c.predicted_us;
  }
}

TEST(PlanSelect, DeadlineAlwaysFeasibleWithGenerousBudget) {
  // With an hour-long deadline SOMETHING always fits, on every retry
  // model and shape the suite uses.
  const Planner planner = pure_planner();
  const auto check = [&](const Scenario& sc) {
    PlanBudget budget;
    budget.deadline_us = 3.6e9;
    const PlanChoice c = planner.select(plan_features(sc), budget);
    EXPECT_TRUE(c.feasible);
    EXPECT_LE(c.predicted_us, budget.deadline_us);
  };
  check(compile(expmk::test::diamond(), 0.01));
  check(compile(expmk::test::n_graph(), 0.01));
  check(compile(expmk::gen::erdos_dag(40, 0.1, 3), 0.005));
  check(Scenario::compile(expmk::test::diamond(),
                          FailureSpec::per_task({0.1, 0.2, 0.3, 0.1}),
                          RetryModel::Geometric));
}

TEST(PlanRun, RejectsEmptyBudget) {
  const Scenario sc = compile(expmk::test::diamond(), 0.01);
  const Planner planner = pure_planner();
  EXPECT_THROW((void)planner.run(sc, PlanBudget{}), std::invalid_argument);
}

// A NaN budget used to slip past the "both unset" check (NaN <= 0 is
// false) and reach the planner; infinite and negative budgets are just as
// meaningless. All are rejected, whichever field carries them.
TEST(PlanRun, RejectsNonFiniteOrNegativeBudget) {
  const Scenario sc = compile(expmk::test::diamond(), 0.01);
  const Planner planner = pure_planner();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const double bad : {nan, inf, -inf, -1.0}) {
    EXPECT_THROW((void)planner.run(sc, PlanBudget{bad, 0.0}),
                 std::invalid_argument);
    EXPECT_THROW((void)planner.run(sc, PlanBudget{0.01, bad}),
                 std::invalid_argument);
    EXPECT_THROW((void)planner.run(sc, PlanBudget{0.0, bad}),
                 std::invalid_argument);
  }
}

TEST(PlanRun, DeliveredAccuracyMeetsTargetOnOracleGrid) {
  // Every grid cell is <= 24 tasks so `exact` provides ground truth.
  // The planner must DELIVER its target on each cell, whatever method
  // it picks: |planned - exact| / exact <= target.
  const auto& reg = EvaluatorRegistry::builtin();
  const Planner planner = pure_planner();

  std::vector<Dag> dags;
  dags.push_back(expmk::test::diamond());
  dags.push_back(expmk::test::n_graph());
  dags.push_back(expmk::gen::erdos_dag(12, 0.25, 21));
  dags.push_back(expmk::gen::erdos_dag(18, 0.15, 5));

  for (std::size_t di = 0; di < dags.size(); ++di) {
    for (const double pfail : {0.001, 0.005, 0.01}) {
      const Scenario sc = compile(dags[di], pfail);
      const expmk::exp::EvalResult oracle =
          reg.find("exact")->evaluate(sc, {});
      ASSERT_TRUE(oracle.supported);
      ASSERT_GT(oracle.mean, 0.0);

      for (const double target : {1e-2, 1e-3, 1e-5}) {
        PlanBudget budget;
        budget.target_rel_err = target;
        const PlannedResult pr = planner.run(sc, budget);
        const std::string where = "dag " + std::to_string(di) + " pfail " +
                                  std::to_string(pfail) + " target " +
                                  std::to_string(target) + " method " +
                                  std::string(pr.report.method_name);
        ASSERT_TRUE(pr.result.supported) << where;
        const double rel =
            std::fabs(pr.result.mean - oracle.mean) / oracle.mean;
        EXPECT_LE(rel, target) << where << " rel " << rel;
        EXPECT_TRUE(pr.report.met_target) << where;
      }
    }
  }
}

TEST(PlanRun, ReportRecordsEveryAttempt) {
  const Scenario sc = compile(expmk::gen::erdos_dag(18, 0.15, 5), 0.01);
  const Planner planner = pure_planner();
  PlanBudget budget;
  budget.target_rel_err = 1e-3;
  const PlannedResult pr = planner.run(sc, budget);
  ASSERT_FALSE(pr.report.steps.empty());
  // The report's headline row is the LAST step (the answer returned).
  const auto& last = pr.report.steps.back();
  EXPECT_EQ(pr.report.method, last.method);
  EXPECT_EQ(pr.report.actual_us, last.actual_us);
  EXPECT_EQ(pr.report.max_atoms, last.max_atoms);
  EXPECT_EQ(pr.report.escalations,
            static_cast<int>(pr.report.steps.size()) - 1);
  EXPECT_EQ(pr.report.method_name, plan_method_name(pr.report.method));
}

TEST(PlanCostModel, EwmaMovesTowardObservationAndClamps) {
  constexpr double kAlpha = CostModel::kEwmaAlpha;
  CostModel m;
  EXPECT_DOUBLE_EQ(m.correction(PlanMethod::kFo), 1.0);

  // Observed 2x the prediction: the correction moves up, but only
  // alpha-fraction of the way in log space.
  m.observe(PlanMethod::kFo, 10.0, 20.0);
  const double after_one = m.correction(PlanMethod::kFo);
  EXPECT_GT(after_one, 1.0);
  EXPECT_LT(after_one, 2.0);
  EXPECT_NEAR(after_one, std::exp(kAlpha * std::log(2.0)), 1e-12);
  // A second identical observation: log c2 = (1 - a) log c1 + a log 2.
  m.observe(PlanMethod::kFo, 10.0, 20.0);
  EXPECT_NEAR(std::log(m.correction(PlanMethod::kFo)),
              (1.0 - kAlpha) * std::log(after_one) + kAlpha * std::log(2.0),
              1e-12);

  // A wild outlier is clamped to a 4x ratio per update: it moves the
  // correction exactly as far as a 4x observation does.
  CostModel clamp;
  CostModel four;
  clamp.observe(PlanMethod::kSo, 1.0, 1e6);
  four.observe(PlanMethod::kSo, 1.0, 4.0);
  EXPECT_EQ(clamp.correction(PlanMethod::kSo),
            four.correction(PlanMethod::kSo));
  EXPECT_NEAR(clamp.correction(PlanMethod::kSo),
              std::exp(kAlpha * std::log(4.0)), 1e-12);
  // ... and the other way, to the 1/4 clamp.
  CostModel low;
  CostModel quarter;
  low.observe(PlanMethod::kSo, 1e6, 1.0);
  quarter.observe(PlanMethod::kSo, 4.0, 1.0);
  EXPECT_EQ(low.correction(PlanMethod::kSo),
            quarter.correction(PlanMethod::kSo));
  EXPECT_NEAR(low.correction(PlanMethod::kSo),
              std::exp(kAlpha * std::log(0.25)), 1e-12);

  // Corrections scale predictions; other methods are untouched.
  const CostFeatures f{.tasks = 10, .edges = 20};
  const double base = CostModel().predict_us(PlanMethod::kFo, f, 0, 0);
  EXPECT_NEAR(m.predict_us(PlanMethod::kFo, f, 0, 0),
              base * m.correction(PlanMethod::kFo), base * 1e-9);
  EXPECT_DOUBLE_EQ(m.correction(PlanMethod::kMc), 1.0);

  // Disabled EWMA ignores observations entirely.
  CostModel off;
  off.set_ewma(false);
  off.observe(PlanMethod::kFo, 1.0, 100.0);
  EXPECT_DOUBLE_EQ(off.correction(PlanMethod::kFo), 1.0);
}

}  // namespace
