// tests/test_thread_pin.cpp
//
// The thread-count bit-identity pin for every evaluator that honours
// EvalOptions::threads: mc, cmc and mc.hier (fixed chunk partitions) and
// so, bounds.lower and bounds.upper (fan-out variants, taken only on
// graphs of at least 4096 tasks). Each must return the EXACT same bits at
// threads = 1, 2 and 7 — mean, std_error and certified envelope. The DAGs
// here are above the 4096-task fan-out gate, so the parallel paths really
// run; the suite also runs under the TSan job.

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <string>
#include <vector>

#include "exp/evaluator.hpp"
#include "exp/workspace.hpp"
#include "gen/cholesky.hpp"
#include "gen/random_dags.hpp"
#include "scenario/scenario.hpp"
#include "test_helpers.hpp"

namespace {

using namespace expmk;

const std::vector<std::string> kThreadedMethods = {
    "so", "bounds.lower", "bounds.upper", "mc", "cmc", "mc.hier"};

exp::EvalOptions options(std::size_t threads) {
  exp::EvalOptions opt;
  opt.threads = threads;
  opt.mc_trials = 1'000;  // bounded: the pin is about bits, not accuracy
  opt.seed = 4242;
  return opt;
}

void expect_thread_count_identity(const scenario::Scenario& sc) {
  const auto& reg = exp::EvaluatorRegistry::builtin();
  for (const std::string& name : kThreadedMethods) {
    const exp::Evaluator* e = reg.find(name);
    ASSERT_NE(e, nullptr) << name;
    const auto base = e->evaluate(sc, options(1));
    ASSERT_TRUE(base.supported) << name << ": " << base.note;
    for (const std::size_t threads : {std::size_t{2}, std::size_t{7}}) {
      const auto r = e->evaluate(sc, options(threads));
      ASSERT_TRUE(r.supported) << name << ": " << r.note;
      // Bitwise, not near: every fan-out folds its partials in the serial
      // kernel's order (DESIGN.md, "Threads").
      EXPECT_EQ(base.mean, r.mean) << name << " threads=" << threads;
      EXPECT_EQ(base.mean_lo, r.mean_lo) << name << " threads=" << threads;
      EXPECT_EQ(base.mean_hi, r.mean_hi) << name << " threads=" << threads;
      EXPECT_EQ(base.std_error, r.std_error)
          << name << " threads=" << threads;
    }
  }
}

TEST(ThreadPin, BitIdenticalOnCholesky) {
  const auto g = gen::cholesky_dag(29);
  ASSERT_GE(g.task_count(), 4096u);
  expect_thread_count_identity(test::uniform_scenario(g, 0.01));
}

TEST(ThreadPin, BitIdenticalOnWideLayeredDag) {
  // Wide levels: the bounds fan-out folds 128-task levels, the so blocks
  // cross many levels each.
  const auto g = gen::layered_random(33, 128, 0.02, 99);
  ASSERT_GE(g.task_count(), 4096u);
  expect_thread_count_identity(test::uniform_scenario(g, 0.005));
}

TEST(ThreadPin, BitIdenticalWithHeterogeneousRates) {
  const auto g = gen::cholesky_dag(29);
  std::vector<double> rates(g.task_count());
  for (std::size_t i = 0; i < rates.size(); ++i) {
    rates[i] = 1e-3 * static_cast<double>(1 + (i * 37) % 50);
  }
  expect_thread_count_identity(scenario::Scenario::compile(
      g, scenario::FailureSpec::per_task(rates)));
}

// The so and bounds fan-outs run chunks on the calling thread too, and
// there they lease from the very Workspace::local() whose frame holds the
// kernel's per-block / per-level partials. Frames nest and a slot never
// moves when another grows, so the partials, and a lease held further up
// the caller's stack, come through intact.
TEST(ThreadPin, CallerChunksShareTheCallersLocalWorkspace) {
  const auto g = gen::layered_random(33, 128, 0.02, 99);
  ASSERT_GE(g.task_count(), 4096u);
  const auto sc = test::uniform_scenario(g, 0.005);
  exp::Workspace& ws = exp::Workspace::local();
  const exp::Workspace::Frame frame(ws);
  const std::span<double> held = ws.doubles(64);
  std::fill(held.begin(), held.end(), 42.0);
  for (const std::string name : {"so", "bounds.upper"}) {
    const exp::Evaluator* e = exp::EvaluatorRegistry::builtin().find(name);
    ASSERT_NE(e, nullptr) << name;
    const auto base = e->evaluate(sc, options(1));
    ASSERT_TRUE(base.supported) << name << ": " << base.note;
    for (const std::size_t threads : {std::size_t{2}, std::size_t{7}}) {
      const auto r = e->evaluate(sc, options(threads));
      EXPECT_EQ(base.mean, r.mean) << name << " threads=" << threads;
      EXPECT_EQ(base.mean_lo, r.mean_lo) << name << " threads=" << threads;
      EXPECT_EQ(base.mean_hi, r.mean_hi) << name << " threads=" << threads;
    }
  }
  for (const double v : held) EXPECT_EQ(v, 42.0);
}

TEST(ThreadPin, SmallGraphsMatchAtAnyThreadCount) {
  // Below the fan-out gate so and bounds run their serial kernels at any
  // thread count; the MC engines still split chunks across threads.
  const auto g = gen::cholesky_dag(5);
  ASSERT_LT(g.task_count(), 4096u);
  expect_thread_count_identity(test::uniform_scenario(g, 0.02));
}

}  // namespace
