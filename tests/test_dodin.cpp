// Tests for spgraph/dodin: exactness on SP inputs, duplication behavior on
// non-SP inputs, bias direction, and scalability to the paper's DAGs.

#include <gtest/gtest.h>

#include <cmath>

#include "core/exact.hpp"
#include "core/failure_model.hpp"
#include "gen/cholesky.hpp"
#include "gen/lu.hpp"
#include "gen/random_dags.hpp"
#include "spgraph/dodin.hpp"
#include "test_helpers.hpp"

namespace {

using expmk::core::exact_two_state;
using expmk::core::FailureModel;
using expmk::sp::DodinOptions;
using expmk::test::dodin_two_state;
using expmk::test::uniform_scenario;

TEST(Dodin, ExactOnChain) {
  const auto g = expmk::gen::uniform_chain(5, 0.4);
  const FailureModel m{0.2};
  const auto sc = uniform_scenario(g, m);
  expmk::exp::Workspace ws;
  const auto r = dodin_two_state(g, m, {.max_atoms = 0});
  EXPECT_EQ(r.duplications, 0u);
  EXPECT_NEAR(r.mean, exact_two_state(sc, ws), 1e-12);
}

TEST(Dodin, ExactOnDiamond) {
  const auto g = expmk::test::diamond(0.4, 0.3, 0.5, 0.2);
  const FailureModel m{0.25};
  const auto sc = uniform_scenario(g, m);
  expmk::exp::Workspace ws;
  const auto r = dodin_two_state(g, m, {.max_atoms = 0});
  EXPECT_EQ(r.duplications, 0u);
  EXPECT_NEAR(r.mean, exact_two_state(sc, ws), 1e-12);
}

// Property: on random SP graphs Dodin needs no duplication and is exact.
class DodinSpSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DodinSpSweep, NoDuplicationAndExactOnSpGraphs) {
  const auto g = expmk::gen::random_series_parallel(12, GetParam());
  const FailureModel m{0.1};
  const auto sc = uniform_scenario(g, m);
  expmk::exp::Workspace ws;
  const auto r = dodin_two_state(g, m, {.max_atoms = 0});
  EXPECT_EQ(r.duplications, 0u);
  EXPECT_NEAR(r.mean, exact_two_state(sc, ws), 1e-10);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DodinSpSweep,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u));

TEST(Dodin, NGraphNeedsDuplicationAndOverestimates) {
  // On the N-graph, Dodin duplicates once. Path lengths are increasing
  // functions of independent task durations, hence *associated* random
  // variables (Esary-Proschan-Walkup); replacing a shared task by
  // independent copies therefore yields a stochastically larger maximum,
  // so Dodin's mean is an over-estimate. (DESIGN.md, "Evaluator registry
  // and the sweep subsystem", discusses the paper's sign on Table I.)
  const auto g = expmk::test::n_graph(0.4, 0.5, 0.45, 0.55);
  const FailureModel m{0.4};  // large rate to make the bias visible
  const auto r = dodin_two_state(g, m, {.max_atoms = 0});
  EXPECT_GE(r.duplications, 1u);
  expmk::exp::Workspace ws;
  EXPECT_GE(r.mean, exact_two_state(uniform_scenario(g, m), ws) - 1e-12);
}

TEST(Dodin, WheatstoneBridgeTerminates) {
  const auto g = expmk::gen::wheatstone_bridge();
  const auto r = dodin_two_state(g, FailureModel{0.2}, {.max_atoms = 0});
  EXPECT_GE(r.duplications, 1u);
  EXPECT_GT(r.mean, 0.0);
}

// Random non-SP graphs: Dodin terminates and stays at or above the exact
// value (association argument above; truncation noise gets 0.1% slack).
class DodinRandomSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DodinRandomSweep, TerminatesAndUpperBounds) {
  const auto g = expmk::gen::erdos_dag(12, 0.25, GetParam());
  const FailureModel m{0.3};
  const auto sc = uniform_scenario(g, m);
  expmk::exp::Workspace ws;
  const auto r = dodin_two_state(g, m, {.max_atoms = 128});
  const double exact = exact_two_state(sc, ws);
  EXPECT_GE(r.mean, exact * (1.0 - 1e-3));
  EXPECT_GT(r.mean, 0.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DodinRandomSweep,
                         ::testing::Values(11u, 12u, 13u, 14u, 15u));

TEST(Dodin, AtomBudgetKeepsMeanStable) {
  const auto g = expmk::gen::cholesky_dag(4);
  const FailureModel m = expmk::core::calibrate(g, 0.01);
  const double loose =
      dodin_two_state(g, m, {.max_atoms = 512}).mean;
  const double tight =
      dodin_two_state(g, m, {.max_atoms = 32}).mean;
  // Truncation is mean-preserving per merge; downstream max() operations
  // re-introduce small deviations only.
  EXPECT_NEAR(loose, tight, 0.01 * loose);
}

TEST(Dodin, RunsOnPaperScaleCholesky) {
  const auto g = expmk::gen::cholesky_dag(6);
  const FailureModel m = expmk::core::calibrate(g, 0.001);
  const auto r = dodin_two_state(g, m, {.max_atoms = 64});
  EXPECT_GT(r.duplications, 0u);
  // Sanity: the estimate lands in the same ballpark as the failure-free
  // critical path (silent errors at pfail = 1e-3 add well under 10%).
  const double d = expmk::graph::critical_path_length(g);
  EXPECT_GT(r.mean, 0.5 * d);
  EXPECT_LT(r.mean, 2.0 * d);
}

TEST(Dodin, DuplicationBudgetEnforced) {
  const auto g = expmk::gen::erdos_dag(20, 0.3, 5);
  DodinOptions opts;
  opts.max_atoms = 32;
  opts.max_duplications = 1;
  EXPECT_THROW((void)dodin_two_state(g, FailureModel{0.1}, opts),
               std::runtime_error);
}

}  // namespace
