// tests/test_level_parallel.cpp
//
// Bit-identity of the level-parallel analytic paths (exp/level_parallel.*):
// every analytic evaluator that fans one level across the shared pool —
// so, bounds.lower, bounds.upper, sculli, corlca — must return
// the EXACT same bits at threads = 1, 2 and 7 as the serial kernel.
// level_parallel_min_tasks = 0 forces the parallel paths even on small
// fixtures, so this suite exercises them regardless of the production
// 4096-task activation threshold.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "exp/evaluator.hpp"
#include "gen/cholesky.hpp"
#include "gen/random_dags.hpp"
#include "scenario/scenario.hpp"
#include "test_helpers.hpp"

namespace {

using namespace expmk;

const std::vector<std::string> kLevelParallelMethods = {
    "so", "bounds.lower", "bounds.upper", "sculli", "corlca"};

void expect_thread_count_identity(const scenario::Scenario& sc) {
  const auto& reg = exp::EvaluatorRegistry::builtin();
  for (const std::string& name : kLevelParallelMethods) {
    const exp::Evaluator* e = reg.find(name);
    ASSERT_NE(e, nullptr) << name;

    exp::EvalOptions serial;
    serial.threads = 1;  // the serial allocation-free kernels
    const auto base = e->evaluate(sc, serial);
    ASSERT_TRUE(base.supported) << name << ": " << base.note;

    for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                      std::size_t{7}}) {
      exp::EvalOptions par;
      par.threads = threads;
      par.level_parallel_min_tasks = 0;  // force the parallel paths
      const auto r = e->evaluate(sc, par);
      ASSERT_TRUE(r.supported) << name << ": " << r.note;
      // Bitwise, not near: the parallel fold order is specified to match
      // the serial one exactly (DESIGN.md, level-parallel contract).
      EXPECT_EQ(base.mean, r.mean) << name << " threads=" << threads;
      EXPECT_EQ(base.mean_lo, r.mean_lo) << name << " threads=" << threads;
      EXPECT_EQ(base.mean_hi, r.mean_hi) << name << " threads=" << threads;
      EXPECT_EQ(base.std_error, r.std_error)
          << name << " threads=" << threads;
    }
  }
}

TEST(LevelParallel, BitIdenticalOnCholesky) {
  const auto g = gen::cholesky_dag(6);
  expect_thread_count_identity(
      scenario::Scenario::calibrated(g, 0.01, core::RetryModel::TwoState));
}

TEST(LevelParallel, BitIdenticalOnWideLayeredDag) {
  // Wide levels are the case the chunked fan-out actually splits; a
  // narrow chain would run every level on one worker.
  const auto g = gen::layered_random(25, 20, 0.25, 99);
  expect_thread_count_identity(
      scenario::Scenario::calibrated(g, 0.005, core::RetryModel::TwoState));
}

TEST(LevelParallel, BitIdenticalWithHeterogeneousRates) {
  const auto g = gen::erdos_dag(120, 0.1, 321);
  std::vector<double> rates(g.task_count());
  for (std::size_t i = 0; i < rates.size(); ++i) {
    rates[i] = 1e-4 * static_cast<double>(1 + (i * 37) % 50);
  }
  expect_thread_count_identity(scenario::Scenario::compile(
      g, scenario::FailureSpec::per_task(rates),
      core::RetryModel::TwoState));
}

TEST(LevelParallel, ForcedParallelMatchesDefaultThreshold) {
  // Below the activation threshold the default options run serial; the
  // forced-parallel run must be indistinguishable — proving the
  // threshold is a pure wall-clock knob, never an accuracy one.
  const auto g = gen::cholesky_dag(5);
  const auto sc =
      scenario::Scenario::calibrated(g, 0.02, core::RetryModel::TwoState);
  const auto& reg = exp::EvaluatorRegistry::builtin();
  for (const std::string& name : kLevelParallelMethods) {
    const exp::Evaluator* e = reg.find(name);
    const auto def = e->evaluate(sc, exp::EvalOptions{});
    exp::EvalOptions forced;
    forced.level_parallel_min_tasks = 0;
    forced.threads = 7;
    const auto par = e->evaluate(sc, forced);
    ASSERT_TRUE(def.supported) << name;
    EXPECT_EQ(def.mean, par.mean) << name;
  }
}

}  // namespace
