// tests/test_patch.cpp
//
// The incremental-scenario contract (scenario/scenario.hpp):
//
//     sc.patch(tasks, rates[, weights])  ==  Scenario::compile(patched
//     inputs)  — bit for bit, for every cached plane and every evaluator.
//
// patch() re-derives only what a change invalidates (the patched tasks'
// exp/log constants; the descendant cone of weight patches), so the
// equality here is the whole point: an incremental clone that drifted
// from the fresh compile by even one ulp would poison the serving
// cache's patch-on-miss fast path.

#include <gtest/gtest.h>

#include <cmath>
#include <span>
#include <string>
#include <vector>

#include "exp/evaluator.hpp"
#include "gen/cholesky.hpp"
#include "gen/random_dags.hpp"
#include "prob/rng.hpp"
#include "scenario/content_hash.hpp"
#include "scenario/scenario.hpp"
#include "test_helpers.hpp"

namespace {

using namespace expmk;

const std::vector<std::string> kCheckMethods = {"fo", "so", "sculli",
                                                "corlca", "dodin"};

/// Bitwise scenario equivalence through every observable surface: the
/// cached planes and a spread of analytic evaluations.
void expect_bit_identical(const scenario::Scenario& a,
                          const scenario::Scenario& b) {
  ASSERT_EQ(a.task_count(), b.task_count());
  for (std::size_t i = 0; i < a.task_count(); ++i) {
    EXPECT_EQ(a.rates_csr()[i], b.rates_csr()[i]) << "rates_csr[" << i << "]";
    EXPECT_EQ(a.p_success_csr()[i], b.p_success_csr()[i])
        << "p_success_csr[" << i << "]";
    EXPECT_EQ(a.q_fail_csr()[i], b.q_fail_csr()[i])
        << "q_fail_csr[" << i << "]";
    EXPECT_EQ(a.inv_log_q_csr()[i], b.inv_log_q_csr()[i])
        << "inv_log_q_csr[" << i << "]";
    EXPECT_EQ(a.finish_csr()[i], b.finish_csr()[i]) << "finish_csr[" << i << "]";
    EXPECT_EQ(a.weights_csr()[i], b.weights_csr()[i]) << "weights_csr[" << i << "]";
  }
  ASSERT_EQ(a.exits().size(), b.exits().size());
  for (std::size_t i = 0; i < a.exits().size(); ++i) {
    EXPECT_EQ(a.exits()[i], b.exits()[i]) << "exits[" << i << "]";
  }
  EXPECT_EQ(a.failure_free(), b.failure_free());
  EXPECT_EQ(a.mean_weight(), b.mean_weight());
  EXPECT_EQ(a.total_weight(), b.total_weight());
  EXPECT_EQ(a.critical_path(), b.critical_path());
  EXPECT_EQ(scenario::content_hash(a.dag(), a.failure(), a.retry()),
            scenario::content_hash(b.dag(), b.failure(), b.retry()));
  const auto& reg = exp::EvaluatorRegistry::builtin();
  for (const std::string& name : kCheckMethods) {
    const auto ra = reg.find(name)->evaluate(a, {});
    const auto rb = reg.find(name)->evaluate(b, {});
    ASSERT_EQ(ra.supported, rb.supported) << name;
    if (!ra.supported) continue;
    EXPECT_EQ(ra.mean, rb.mean) << name;
    EXPECT_EQ(ra.mean_lo, rb.mean_lo) << name;
    EXPECT_EQ(ra.mean_hi, rb.mean_hi) << name;
  }
}

std::vector<double> base_rates(std::size_t n, std::uint64_t seed) {
  prob::McRng rng(seed, 0);
  std::vector<double> rates(n);
  for (double& r : rates) r = 1e-4 + 5e-3 * rng.uniform_positive();
  return rates;
}

TEST(Patch, RatePatchMatchesFreshCompile) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    const auto g = gen::layered_random(10, 8, 0.3, seed);
    auto rates = base_rates(g.task_count(), seed);
    const auto sc = scenario::Scenario::compile(
        g, scenario::FailureSpec::per_task(rates),
        core::RetryModel::TwoState);

    const std::vector<graph::TaskId> ids = {
        0, static_cast<graph::TaskId>(g.task_count() / 2),
        static_cast<graph::TaskId>(g.task_count() - 1)};
    const std::vector<double> nr = {2e-3, 7e-4, 9e-3};
    const auto patched = sc.patch(ids, nr);

    for (std::size_t j = 0; j < ids.size(); ++j) rates[ids[j]] = nr[j];
    const auto fresh = scenario::Scenario::compile(
        g, scenario::FailureSpec::per_task(rates),
        core::RetryModel::TwoState);
    expect_bit_identical(patched, fresh);
  }
}

TEST(Patch, WeightPatchRepairsTheDescendantCone) {
  const auto g = gen::cholesky_dag(5);
  const auto rates = base_rates(g.task_count(), 77);
  const auto sc = scenario::Scenario::compile(
      g, scenario::FailureSpec::per_task(rates),
      core::RetryModel::TwoState);

  const std::vector<graph::TaskId> ids = {1, 4};
  const std::vector<double> nr = {rates[1], 3e-3};  // one rate also moves
  const std::vector<double> nw = {5.0, 0.25};
  const auto patched = sc.patch(ids, nr, nw);

  graph::Dag g2 = g;
  g2.set_weight(1, 5.0);
  g2.set_weight(4, 0.25);
  auto merged = rates;
  merged[4] = 3e-3;
  const auto fresh = scenario::Scenario::compile(
      g2, scenario::FailureSpec::per_task(merged),
      core::RetryModel::TwoState);
  expect_bit_identical(patched, fresh);
}

TEST(Patch, UniformBasePatchGoesHeterogeneous) {
  const auto g = gen::erdos_dag(60, 0.15, 5);
  const auto sc = scenario::Scenario::calibrated(
      g, 0.01, core::RetryModel::Geometric);
  const std::vector<graph::TaskId> ids = {7};
  const std::vector<double> nr = {4e-3};
  const auto patched = sc.patch(ids, nr);

  std::vector<double> merged(sc.task_count(),
                             sc.failure().uniform_lambda());
  merged[7] = 4e-3;
  const auto fresh = scenario::Scenario::compile(
      g, scenario::FailureSpec::per_task(merged),
      core::RetryModel::Geometric);
  expect_bit_identical(patched, fresh);
}

TEST(Patch, ChainedPatchesMatchOneFreshCompile) {
  // patch(patch(sc)) — the serving steady state: every request patches
  // the previous sibling, drift must not accumulate.
  const auto g = gen::layered_random(8, 6, 0.35, 13);
  auto rates = base_rates(g.task_count(), 13);
  auto sc = scenario::Scenario::compile(
      g, scenario::FailureSpec::per_task(rates),
      core::RetryModel::TwoState);
  for (int step = 0; step < 5; ++step) {
    const std::vector<graph::TaskId> ids = {
        static_cast<graph::TaskId>((step * 11) % g.task_count())};
    const std::vector<double> nr = {1e-4 * (step + 2)};
    sc = sc.patch(ids, nr);
    rates[ids[0]] = nr[0];
  }
  const auto fresh = scenario::Scenario::compile(
      g, scenario::FailureSpec::per_task(rates),
      core::RetryModel::TwoState);
  expect_bit_identical(sc, fresh);
}

TEST(Patch, WithFailureMatchesFreshCompile) {
  const auto g = gen::cholesky_dag(4);
  const auto sc = scenario::Scenario::calibrated(
      g, 0.01, core::RetryModel::TwoState);
  const auto rates = base_rates(g.task_count(), 99);
  const auto spec = scenario::FailureSpec::per_task(rates);
  const auto patched = sc.with_failure(spec);
  const auto fresh =
      scenario::Scenario::compile(g, spec, core::RetryModel::TwoState);
  expect_bit_identical(patched, fresh);
}

TEST(Patch, CountersDistinguishPatchFromCompile) {
  const auto g = gen::erdos_dag(40, 0.2, 8);
  const auto compiled_before = scenario::Scenario::compiled_count();
  const auto patched_before = scenario::Scenario::patched_count();
  const auto sc = scenario::Scenario::calibrated(
      g, 0.02, core::RetryModel::TwoState);
  const std::vector<graph::TaskId> ids = {3};
  const std::vector<double> nr = {1e-3};
  const auto p = sc.patch(ids, nr);
  (void)p;
  EXPECT_EQ(scenario::Scenario::compiled_count(), compiled_before + 1);
  EXPECT_EQ(scenario::Scenario::patched_count(), patched_before + 1);
}

TEST(Patch, InvalidInputsThrowLikeCompile) {
  const auto g = gen::erdos_dag(20, 0.2, 4);
  const auto sc = scenario::Scenario::calibrated(
      g, 0.01, core::RetryModel::TwoState);
  const std::vector<graph::TaskId> bad_id = {
      static_cast<graph::TaskId>(g.task_count())};
  const std::vector<double> one = {1e-3};
  EXPECT_THROW((void)sc.patch(bad_id, one), std::exception);
  const std::vector<graph::TaskId> two_ids = {0, 1};
  EXPECT_THROW((void)sc.patch(two_ids, one), std::exception);
  const std::vector<graph::TaskId> ok = {0};
  const std::vector<double> negative = {-1.0};
  EXPECT_THROW((void)sc.patch(ok, negative), std::exception);
}

}  // namespace
