// Integration tests: the full paper pipeline on real (small) factorization
// DAGs — all three estimators against the Monte-Carlo ground truth, with
// the orderings the paper's evaluation reports.

#include <gtest/gtest.h>

#include <cmath>

#include "core/failure_model.hpp"
#include "core/first_order.hpp"
#include "core/second_order.hpp"
#include "gen/cholesky.hpp"
#include "gen/lu.hpp"
#include "gen/qr.hpp"
#include "graph/csr.hpp"
#include "mc/engine.hpp"
#include "normal/sculli.hpp"
#include "test_helpers.hpp"

namespace {

using expmk::core::calibrate;
using expmk::core::FailureModel;
using expmk::core::first_order;
using expmk::mc::McConfig;
using expmk::mc::run_monte_carlo;
using expmk::test::uniform_scenario;

struct MethodErrors {
  double first_order;
  double dodin;
  double sculli;
  double mc_mean;
};

MethodErrors run_pipeline(const expmk::graph::Dag& g, double pfail,
                          std::uint64_t trials) {
  const FailureModel m = calibrate(g, pfail);
  McConfig cfg;
  cfg.trials = trials;
  cfg.seed = 2016;
  cfg.control_variate = true;  // tighter ground truth per trial
  const auto mc = run_monte_carlo(
      uniform_scenario(g, m, expmk::core::RetryModel::Geometric), cfg);

  const auto two_state = uniform_scenario(g, m);
  expmk::exp::Workspace ws;
  const double fo = first_order(two_state, ws).expected_makespan();
  const double dod =
      expmk::test::dodin_two_state(g, m, {.max_atoms = 128}).mean;
  const double sc = expmk::normal::sculli(two_state, ws).expected_makespan();
  const auto rel = [&](double est) {
    return std::fabs(est - mc.mean) / mc.mean;
  };
  return {rel(fo), rel(dod), rel(sc), mc.mean};
}

TEST(Integration, CholeskyLowPfailFirstOrderWins) {
  // The paper's headline: at low pfail, First Order beats Dodin and
  // Normal by orders of magnitude. At pfail = 1e-3 on Cholesky k=4 the
  // margin is large enough to assert outright.
  const auto g = expmk::gen::cholesky_dag(4);
  const auto e = run_pipeline(g, 0.001, 150'000);
  EXPECT_LT(e.first_order, e.dodin);
  EXPECT_LT(e.first_order, 5e-3);
  EXPECT_GT(e.mc_mean, expmk::graph::critical_path_length(g));
}

TEST(Integration, LuLowPfailFirstOrderWins) {
  const auto g = expmk::gen::lu_dag(4);
  const auto e = run_pipeline(g, 0.001, 150'000);
  EXPECT_LT(e.first_order, e.dodin);
  EXPECT_LT(e.first_order, 5e-3);
}

TEST(Integration, QrLowPfailFirstOrderWins) {
  const auto g = expmk::gen::qr_dag(4);
  const auto e = run_pipeline(g, 0.001, 150'000);
  EXPECT_LT(e.first_order, e.dodin);
  EXPECT_LT(e.first_order, 5e-3);
}

TEST(Integration, DodinWorstAtModeratePfail) {
  // "Across the board the Dodin approximation leads to high error" — at
  // pfail = 0.01 Dodin should trail both competitors on Cholesky.
  const auto g = expmk::gen::cholesky_dag(5);
  const auto e = run_pipeline(g, 0.01, 150'000);
  EXPECT_GT(e.dodin, e.first_order);
  EXPECT_GT(e.dodin, e.sculli);
}

TEST(Integration, ErrorsShrinkWithPfail) {
  // First Order's relative error at pfail=1e-4 is far below its error at
  // pfail=1e-2 (the O(lambda^2) scaling made visible end-to-end).
  const auto g = expmk::gen::cholesky_dag(4);
  const auto high = run_pipeline(g, 0.01, 200'000);
  const auto low = run_pipeline(g, 0.0001, 200'000);
  EXPECT_LT(low.first_order, high.first_order);
}

TEST(Integration, SecondOrderRefinesFirstOrderAtHighPfail) {
  const auto g = expmk::gen::cholesky_dag(4);
  const auto sc = uniform_scenario(g, 0.05);  // harsh failure regime
  McConfig cfg;
  cfg.trials = 400'000;
  cfg.seed = 99;
  const auto mc = run_monte_carlo(sc, cfg);
  expmk::exp::Workspace ws;
  const double fo = first_order(sc, ws).expected_makespan();
  const double so = expmk::core::second_order(sc, ws).expected_makespan;
  EXPECT_LT(std::fabs(so - mc.mean), std::fabs(fo - mc.mean));
}

TEST(Integration, AllEstimatesAboveFailureFreeMakespan) {
  const auto g = expmk::gen::lu_dag(4);
  const FailureModel m = calibrate(g, 0.01);
  const auto sc = uniform_scenario(g, m);
  expmk::exp::Workspace ws;
  const double d = expmk::graph::critical_path_length(g);
  EXPECT_GE(first_order(sc, ws).expected_makespan(), d);
  EXPECT_GE(expmk::normal::sculli(sc, ws).expected_makespan(), d * 0.999);
  EXPECT_GE(expmk::test::dodin_two_state(g, m, {.max_atoms = 128}).mean,
            d * 0.999);
}

}  // namespace
