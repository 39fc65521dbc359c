// Cross-cutting property tests: algebraic laws of the probability
// substrate, invariants tying the estimators together, and behavioural
// equivalences that must hold on *every* graph family. These complement
// the per-module unit tests with randomized sweeps (parameterized over
// seeds/families) — the "property-based" layer of the suite.

#include <gtest/gtest.h>

#include <cmath>

#include "dist_ops.hpp"
#include "core/bounds.hpp"
#include "core/exact.hpp"
#include "core/failure_model.hpp"
#include "core/first_order.hpp"
#include "core/second_order.hpp"
#include "gen/cholesky.hpp"
#include "gen/lu.hpp"
#include "gen/qr.hpp"
#include "gen/random_dags.hpp"
#include "graph/csr.hpp"
#include "graph/serialize.hpp"
#include "graph/topological.hpp"
#include "mc/engine.hpp"
#include "normal/sculli.hpp"
#include "prob/discrete_distribution.hpp"
#include "prob/rng.hpp"
#include "spgraph/dodin.hpp"
#include "reference_estimators.hpp"
#include "spgraph/sp_reduce.hpp"
#include "test_helpers.hpp"

namespace {

using D = expmk::prob::DiscreteDistribution;
using expmk::core::FailureModel;
using expmk::prob::Xoshiro256pp;
using expmk::test::uniform_scenario;
namespace ops = expmk::dist_ops;

/// First-order expected makespan of `g` under the uniform model `m`.
double fo(const expmk::graph::Dag& g, const FailureModel& m) {
  expmk::exp::Workspace ws;
  return expmk::core::first_order(uniform_scenario(g, m), ws)
      .expected_makespan();
}

D random_distribution(Xoshiro256pp& rng, std::size_t max_atoms = 5) {
  std::vector<expmk::prob::Atom> atoms;
  const std::size_t n = 1 + rng.below(max_atoms);
  for (std::size_t i = 0; i < n; ++i) {
    atoms.push_back({rng.uniform() * 10.0, 0.05 + rng.uniform()});
  }
  return D::from_atoms(std::move(atoms));
}

// ---------------------------------------------------------------------
// Distribution algebra laws.
// ---------------------------------------------------------------------

class DistributionLaws : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DistributionLaws, ConvolutionIsCommutative) {
  Xoshiro256pp rng(GetParam());
  const D x = random_distribution(rng);
  const D y = random_distribution(rng);
  EXPECT_TRUE(ops::approx_equals(ops::convolve(x, y), ops::convolve(y, x), 1e-9));
}

TEST_P(DistributionLaws, ConvolutionIsAssociativeInMean) {
  Xoshiro256pp rng(GetParam() + 100);
  const D x = random_distribution(rng);
  const D y = random_distribution(rng);
  const D z = random_distribution(rng);
  const D left = ops::convolve(ops::convolve(x, y), z);
  const D right = ops::convolve(x, ops::convolve(y, z));
  EXPECT_NEAR(left.mean(), right.mean(), 1e-9);
  EXPECT_NEAR(left.variance(), right.variance(), 1e-9);
}

TEST_P(DistributionLaws, MaxIsCommutativeAndIdempotentOnPoints) {
  Xoshiro256pp rng(GetParam() + 200);
  const D x = random_distribution(rng);
  const D y = random_distribution(rng);
  EXPECT_TRUE(ops::approx_equals(ops::max_of(x, y), ops::max_of(y, x), 1e-9));
  const D p = D::point(3.0);
  EXPECT_TRUE(ops::approx_equals(ops::max_of(p, p), p, 1e-12));
}

TEST_P(DistributionLaws, ConvolveWithPointIsShift) {
  Xoshiro256pp rng(GetParam() + 300);
  const D x = random_distribution(rng);
  EXPECT_TRUE(
      ops::approx_equals(ops::convolve(x, D::point(2.5)),
                         ops::shifted(x, 2.5), 1e-9));
}

TEST_P(DistributionLaws, MaxDominatesBothOperandsStochastically) {
  Xoshiro256pp rng(GetParam() + 400);
  const D x = random_distribution(rng);
  const D y = random_distribution(rng);
  const D m = ops::max_of(x, y);
  // F_max(t) <= min(F_x(t), F_y(t)) pointwise.
  for (const auto& at : m.atoms()) {
    EXPECT_LE(m.cdf(at.value), x.cdf(at.value) + 1e-12);
    EXPECT_LE(m.cdf(at.value), y.cdf(at.value) + 1e-12);
  }
  EXPECT_GE(m.mean(), std::max(x.mean(), y.mean()) - 1e-12);
}

TEST_P(DistributionLaws, TruncationIsMeanPreservingAndVarianceShrinking) {
  Xoshiro256pp rng(GetParam() + 500);
  D d = random_distribution(rng);
  for (int i = 0; i < 4; ++i) d = ops::convolve(d, random_distribution(rng));
  const D t = ops::truncated(d, 8);
  EXPECT_LE(t.size(), 8u);
  EXPECT_NEAR(t.mean(), d.mean(), 1e-9);
  EXPECT_LE(t.variance(), d.variance() + 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DistributionLaws,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u));

// ---------------------------------------------------------------------
// Estimator invariants across graph families.
// ---------------------------------------------------------------------

struct FamilyCase {
  const char* name;
  expmk::graph::Dag (*make)(std::uint64_t seed);
};

expmk::graph::Dag make_erdos(std::uint64_t s) {
  return expmk::gen::erdos_dag(25, 0.2, s);
}
expmk::graph::Dag make_layered(std::uint64_t s) {
  return expmk::gen::layered_random(5, 5, 0.4, s);
}
expmk::graph::Dag make_sp(std::uint64_t s) {
  return expmk::gen::random_series_parallel(25, s);
}
expmk::graph::Dag make_chol(std::uint64_t s) {
  return expmk::gen::cholesky_dag(3 + static_cast<int>(s % 4));
}
expmk::graph::Dag make_lu(std::uint64_t s) {
  return expmk::gen::lu_dag(3 + static_cast<int>(s % 3));
}

class EstimatorInvariants
    : public ::testing::TestWithParam<std::tuple<int, std::uint64_t>> {
 protected:
  expmk::graph::Dag make() const {
    static constexpr FamilyCase kFamilies[] = {
        {"erdos", make_erdos},   {"layered", make_layered},
        {"sp", make_sp},         {"cholesky", make_chol},
        {"lu", make_lu},
    };
    const auto& fam = kFamilies[std::get<0>(GetParam())];
    return fam.make(std::get<1>(GetParam()));
  }
};

TEST_P(EstimatorInvariants, FirstOrderSandwichedByBounds) {
  const auto g = make();
  const auto sc = uniform_scenario(g, 0.001);
  expmk::exp::Workspace ws;
  const auto b = expmk::core::makespan_bounds(sc, ws);
  const double fo = expmk::core::first_order(sc, ws).expected_makespan();
  EXPECT_GE(fo, b.failure_free - 1e-12);
  EXPECT_LE(fo, b.level_upper * (1.0 + 1e-6));
}

TEST_P(EstimatorInvariants, ClosedFormEqualsNaiveEverywhere) {
  const auto g = make();
  const FailureModel m{0.03};
  EXPECT_NEAR(fo(g, m), expmk::ref::first_order_naive(g, m), 1e-9);
}

TEST_P(EstimatorInvariants, SecondOrderReducesToFirstOrderAsLambdaShrinks) {
  const auto g = make();
  // (SO - FO) is O(lambda^2): quartering lambda shrinks it ~16x.
  const FailureModel m1{0.04}, m2{0.01};
  expmk::exp::Workspace ws;
  const double gap1 = std::fabs(
      expmk::core::second_order(uniform_scenario(g, m1), ws)
          .expected_makespan -
      fo(g, m1));
  const double gap2 = std::fabs(
      expmk::core::second_order(uniform_scenario(g, m2), ws)
          .expected_makespan -
      fo(g, m2));
  if (gap1 > 1e-12 && gap2 > 1e-13) {
    EXPECT_GT(gap1 / gap2, 8.0);
  }
}

TEST_P(EstimatorInvariants, SerializationDoesNotChangeEstimates) {
  const auto g = make();
  const auto round_tripped =
      expmk::graph::taskgraph_from_string(expmk::graph::to_taskgraph(g));
  const FailureModel m{0.02};
  // First order is order-independent: bit-exact across the round trip.
  EXPECT_DOUBLE_EQ(fo(g, m), fo(round_tripped, m));
  // Sculli folds predecessors pairwise with Clark's formulas, which are
  // NOT associative; serialization canonicalizes edge order (grouped by
  // source), so the fold order may differ and the estimate moves at the
  // 1e-7..1e-4 level (a documented property of Sculli's method — Canon &
  // Jeannot discuss the same sensitivity). Assert closeness, not
  // identity.
  expmk::exp::Workspace ws;
  const double s1 =
      expmk::normal::sculli(uniform_scenario(g, m), ws).expected_makespan();
  const double s2 =
      expmk::normal::sculli(uniform_scenario(round_tripped, m), ws)
          .expected_makespan();
  EXPECT_NEAR(s1, s2, 1e-4 * s1);
}

TEST_P(EstimatorInvariants, AllEstimatorsAgreeAtLambdaZero) {
  const auto g = make();
  const FailureModel zero{0.0};
  const auto sc = uniform_scenario(g, zero);
  expmk::exp::Workspace ws;
  const double d = expmk::graph::critical_path_length(g);
  EXPECT_NEAR(expmk::core::first_order(sc, ws).expected_makespan(), d, 1e-9);
  EXPECT_NEAR(expmk::core::second_order(sc, ws).expected_makespan, d, 1e-9);
  EXPECT_NEAR(expmk::normal::sculli(sc, ws).expected_makespan(), d, 1e-9);
  EXPECT_NEAR(
      expmk::test::dodin_two_state(g, zero, {.max_atoms = 64}).mean, d,
      1e-9);
}

TEST_P(EstimatorInvariants, McAgreesWithFirstOrderAtLowLambda) {
  const auto g = make();
  const auto sc = uniform_scenario(g, 0.0005);
  expmk::mc::McConfig cfg;
  cfg.trials = 40'000;
  const auto mc = expmk::mc::run_monte_carlo(sc, cfg);
  expmk::exp::Workspace ws;
  const double fo = expmk::core::first_order(sc, ws).expected_makespan();
  // FO error is O(lambda^2) ~ 1e-6 relative here; the MC CI dominates.
  EXPECT_NEAR(fo, mc.mean, 5.0 * mc.ci95_half_width + 1e-6 * mc.mean);
}

INSTANTIATE_TEST_SUITE_P(
    FamiliesAndSeeds, EstimatorInvariants,
    ::testing::Combine(::testing::Range(0, 5),
                       ::testing::Values(1u, 2u, 3u)));

// ---------------------------------------------------------------------
// Spot properties that need only one instantiation.
// ---------------------------------------------------------------------

TEST(Properties, FirstOrderIsLinearInLambda) {
  // FO(lambda) = d + lambda * C exactly (the correction is linear).
  const auto g = expmk::gen::qr_dag(4);
  const double f1 = fo(g, FailureModel{0.01});
  const double f2 = fo(g, FailureModel{0.02});
  const double f3 = fo(g, FailureModel{0.03});
  const double d1 = f2 - f1;
  const double d2 = f3 - f2;
  EXPECT_NEAR(d1, d2, 1e-12);
}

TEST(Properties, ScalingWeightsScalesEstimatesWithRescaledLambda) {
  // Replacing a_i -> c a_i and lambda -> lambda / c leaves every
  // probability p_i invariant, so FO scales exactly by c.
  const auto g = expmk::gen::cholesky_dag(4);
  expmk::graph::Dag scaled = g;
  const double c = 3.0;
  for (expmk::graph::TaskId i = 0; i < g.task_count(); ++i) {
    scaled.set_weight(i, c * g.weight(i));
  }
  const double lambda = 0.05;
  const double fo_base = fo(g, FailureModel{lambda});
  const double fo_scaled = fo(scaled, FailureModel{lambda / c});
  EXPECT_NEAR(fo_scaled, c * fo_base, 1e-9);
}

TEST(Properties, DodinExactEqualsSpEvaluationOnSpGraphs) {
  for (const std::uint64_t seed : {21u, 22u, 23u}) {
    const auto g = expmk::gen::random_series_parallel(18, seed);
    const FailureModel m{0.1};
    const auto sc = uniform_scenario(g, m);
    expmk::exp::Workspace ws;
    const auto sp_eval = expmk::sp::evaluate_sp_flat(sc, 0, ws);
    ASSERT_TRUE(sp_eval.is_series_parallel);
    const auto dodin =
        expmk::sp::dodin_two_state_flat(sc, {.max_atoms = 0}, ws);
    EXPECT_NEAR(dodin.mean, sp_eval.mean, 1e-10);
  }
}

TEST(Properties, AddingAnEdgeNeverShrinksTheExpectedMakespan) {
  // More precedence = (weakly) longer makespan, for exact and FO alike.
  Xoshiro256pp rng(77);
  auto g = expmk::gen::erdos_dag(10, 0.2, 9);
  const FailureModel m{0.05};
  const auto topo = expmk::graph::topological_order(g);
  const auto rank = expmk::graph::ranks_of(topo);
  // Add a random forward edge not present yet.
  for (int added = 0; added < 5;) {
    const auto u = static_cast<expmk::graph::TaskId>(rng.below(10));
    const auto v = static_cast<expmk::graph::TaskId>(rng.below(10));
    if (u == v || rank[u] >= rank[v]) continue;
    const auto succ = g.successors(u);
    if (std::find(succ.begin(), succ.end(), v) != succ.end()) continue;
    expmk::exp::Workspace ws;
    const double before_exact =
        expmk::core::exact_two_state(uniform_scenario(g, m), ws);
    const double before_fo = fo(g, m);
    g.add_edge(u, v);
    ++added;
    EXPECT_GE(expmk::core::exact_two_state(uniform_scenario(g, m), ws),
              before_exact - 1e-12);
    EXPECT_GE(fo(g, m), before_fo - 1e-12);
  }
}

TEST(Properties, TwoStateExactIsMonotoneInLambda) {
  const auto g = expmk::test::diamond(0.4, 0.3, 0.5, 0.2);
  double prev = 0.0;
  expmk::exp::Workspace ws;
  for (const double lambda : {0.0, 0.05, 0.1, 0.2, 0.4, 0.8}) {
    const double e = expmk::core::exact_two_state(
        uniform_scenario(g, FailureModel{lambda}), ws);
    EXPECT_GE(e, prev - 1e-12) << lambda;
    prev = e;
  }
}

TEST(Properties, QrAlwaysCostsMoreThanLuSameSize) {
  // Same DAG shape, ~2x kernel weights: every estimator must rank QR
  // above LU for the same k and pfail.
  for (const int k : {4, 6, 8}) {
    const auto lu = expmk::gen::lu_dag(k);
    const auto qr = expmk::gen::qr_dag(k);
    EXPECT_GT(fo(qr, expmk::core::calibrate(qr, 0.01)),
              fo(lu, expmk::core::calibrate(lu, 0.01)));
  }
}

}  // namespace
