// Unit tests for prob/discrete_distribution (construction invariants and
// moment identities of the boundary value type) and for the test-side
// reference arithmetic in tests/dist_ops: the convolution/max algebra
// Dodin relies on and the truncation guarantees.

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "dist_ops.hpp"
#include "prob/discrete_distribution.hpp"

namespace {

using D = expmk::prob::DiscreteDistribution;
using expmk::prob::Atom;
namespace ops = expmk::dist_ops;

TEST(DiscreteDistribution, DefaultIsPointMassAtZero) {
  const D d;
  EXPECT_EQ(d.size(), 1u);
  EXPECT_DOUBLE_EQ(d.mean(), 0.0);
  EXPECT_DOUBLE_EQ(d.variance(), 0.0);
}

TEST(DiscreteDistribution, TwoStateMoments) {
  const double a = 0.15, p = 0.99;
  const D d = D::two_state(a, p);
  EXPECT_EQ(d.size(), 2u);
  EXPECT_NEAR(d.mean(), a * (2.0 - p), 1e-15);
  EXPECT_NEAR(d.variance(), a * a * p * (1.0 - p), 1e-15);
  EXPECT_DOUBLE_EQ(d.min(), a);
  EXPECT_DOUBLE_EQ(d.max(), 2.0 * a);
}

TEST(DiscreteDistribution, TwoStateDegenerateEnds) {
  EXPECT_EQ(D::two_state(1.0, 1.0).size(), 1u);
  EXPECT_DOUBLE_EQ(D::two_state(1.0, 1.0).mean(), 1.0);
  EXPECT_DOUBLE_EQ(D::two_state(1.0, 0.0).mean(), 2.0);
  EXPECT_THROW(D::two_state(-1.0, 0.5), std::invalid_argument);
  EXPECT_THROW(D::two_state(1.0, 1.5), std::invalid_argument);
}

TEST(DiscreteDistribution, GeometricReexecMatchesTwoStateWhenCapped) {
  const D g2 = ops::geometric_reexec(0.2, 0.9, 2);
  const D ts = D::two_state(0.2, 0.9);
  EXPECT_TRUE(ops::approx_equals(g2, ts, 1e-12)) << g2 << " vs " << ts;
}

TEST(DiscreteDistribution, GeometricReexecTailMassSums) {
  const D g = ops::geometric_reexec(1.0, 0.5, 5);
  EXPECT_EQ(g.size(), 5u);
  double total = 0.0;
  for (const Atom& at : g.atoms()) total += at.prob;
  EXPECT_NEAR(total, 1.0, 1e-12);
  // P(k=5 atom) = (1-p)^4 = 0.0625 (tail).
  EXPECT_NEAR(g.atoms().back().prob, 0.0625, 1e-12);
}

TEST(DiscreteDistribution, FromAtomsConsolidatesDuplicates) {
  const D d = D::from_atoms({{1.0, 0.25}, {1.0, 0.25}, {2.0, 0.5}});
  EXPECT_EQ(d.size(), 2u);
  EXPECT_NEAR(d.cdf(1.0), 0.5, 1e-12);
}

TEST(DiscreteDistribution, FromAtomsNormalizes) {
  const D d = D::from_atoms({{0.0, 2.0}, {1.0, 2.0}});
  EXPECT_NEAR(d.mean(), 0.5, 1e-12);
  EXPECT_THROW(D::from_atoms({}), std::invalid_argument);
  EXPECT_THROW(D::from_atoms({{1.0, 0.0}}), std::invalid_argument);
}

TEST(DiscreteDistribution, CdfAndQuantile) {
  const D d = D::from_atoms({{1.0, 0.2}, {2.0, 0.3}, {4.0, 0.5}});
  EXPECT_DOUBLE_EQ(d.cdf(0.5), 0.0);
  EXPECT_NEAR(d.cdf(1.0), 0.2, 1e-12);
  EXPECT_NEAR(d.cdf(3.0), 0.5, 1e-12);
  EXPECT_NEAR(d.cdf(10.0), 1.0, 1e-12);
  EXPECT_DOUBLE_EQ(d.quantile(0.1), 1.0);
  EXPECT_DOUBLE_EQ(d.quantile(0.5), 2.0);
  EXPECT_DOUBLE_EQ(d.quantile(0.51), 4.0);
  EXPECT_DOUBLE_EQ(d.quantile(1.0), 4.0);
  EXPECT_THROW((void)d.quantile(0.0), std::invalid_argument);
}

TEST(DiscreteDistribution, ShiftMovesSupportOnly) {
  const D d = ops::shifted(D::two_state(1.0, 0.7), 10.0);
  EXPECT_DOUBLE_EQ(d.min(), 11.0);
  EXPECT_DOUBLE_EQ(d.max(), 12.0);
  EXPECT_NEAR(d.mean(), 10.0 + 1.3, 1e-12);
}

TEST(DiscreteDistribution, ConvolutionOfPointsIsPoint) {
  const D d = ops::convolve(D::point(1.5), D::point(2.5));
  EXPECT_EQ(d.size(), 1u);
  EXPECT_DOUBLE_EQ(d.mean(), 4.0);
}

TEST(DiscreteDistribution, ConvolutionMeansAndVariancesAdd) {
  const D x = D::two_state(1.0, 0.8);
  const D y = D::two_state(0.5, 0.6);
  const D s = ops::convolve(x, y);
  EXPECT_NEAR(s.mean(), x.mean() + y.mean(), 1e-12);
  EXPECT_NEAR(s.variance(), x.variance() + y.variance(), 1e-12);
  EXPECT_EQ(s.size(), 4u);
}

TEST(DiscreteDistribution, ConvolutionBruteForceCrossCheck) {
  const D x = D::from_atoms({{0.0, 0.5}, {1.0, 0.3}, {3.0, 0.2}});
  const D y = D::from_atoms({{1.0, 0.4}, {2.0, 0.6}});
  const D s = ops::convolve(x, y);
  // P(s = 3) = P(x=1)P(y=2) + P(x=... ) -> pairs summing to 3:
  // (1,2): 0.3*0.6 = 0.18; (x=3,y=0) absent. Plus none else.
  EXPECT_NEAR(s.cdf(3.0) - s.cdf(2.99), 0.18, 1e-12);
  EXPECT_NEAR(s.mean(), x.mean() + y.mean(), 1e-12);
}

TEST(DiscreteDistribution, MaxOfIndependentMatchesCdfProduct) {
  const D x = D::from_atoms({{1.0, 0.5}, {3.0, 0.5}});
  const D y = D::from_atoms({{2.0, 0.5}, {4.0, 0.5}});
  const D m = ops::max_of(x, y);
  // P(max <= 2) = P(x<=2) P(y<=2) = 0.5 * 0.5.
  EXPECT_NEAR(m.cdf(2.0), 0.25, 1e-12);
  // P(max <= 3) = P(x<=3) P(y<=3) = 1.0 * 0.5.
  EXPECT_NEAR(m.cdf(3.0), 0.5, 1e-12);
  EXPECT_NEAR(m.cdf(4.0), 1.0, 1e-12);
  // Support atoms: {2: 0.25, 3: 0.25, 4: 0.5}.
  EXPECT_NEAR(m.mean(), 2 * 0.25 + 3 * 0.25 + 4 * 0.5, 1e-12);
}

TEST(DiscreteDistribution, MaxWithDominatingPointIsThatPoint) {
  const D x = D::two_state(1.0, 0.5);  // support {1, 2}
  const D m = ops::max_of(x, D::point(5.0));
  EXPECT_EQ(m.size(), 1u);
  EXPECT_DOUBLE_EQ(m.mean(), 5.0);
}

TEST(DiscreteDistribution, MixtureWeightsAtoms) {
  const D m = ops::mixture(D::point(0.0), 0.25, D::point(1.0));
  EXPECT_NEAR(m.mean(), 0.75, 1e-12);
  EXPECT_THROW(ops::mixture(D::point(0.0), 1.5, D::point(1.0)),
               std::invalid_argument);
}

TEST(DiscreteDistribution, TruncationPreservesMeanAndMass) {
  // Build a 64-atom distribution by convolving 6 two-state laws.
  D d = D::two_state(1.0, 0.9);
  for (int i = 0; i < 5; ++i) {
    d = ops::convolve(d, D::two_state(1.0 + 0.1 * i, 0.8));
  }
  ASSERT_GT(d.size(), 16u);
  const D t = ops::truncated(d, 16);
  EXPECT_LE(t.size(), 16u);
  EXPECT_NEAR(t.mean(), d.mean(), 1e-9);
  double total = 0.0;
  for (const Atom& at : t.atoms()) total += at.prob;
  EXPECT_NEAR(total, 1.0, 1e-12);
  // Variance can only shrink (atoms merge toward their local mean).
  EXPECT_LE(t.variance(), d.variance() + 1e-12);
}

TEST(DiscreteDistribution, TruncationNoOpWhenWithinBudget) {
  const D d = D::two_state(1.0, 0.5);
  EXPECT_TRUE(ops::approx_equals(ops::truncated(d, 10), d));
  EXPECT_TRUE(ops::approx_equals(ops::truncated(d, 0), d));  // 0 = unlimited
}

TEST(DiscreteDistribution, CappedOpsRespectBudget) {
  D d = D::two_state(1.0, 0.9);
  for (int i = 0; i < 10; ++i) {
    d = ops::convolve(d, D::two_state(0.3 + 0.01 * i, 0.95), 32);
    ASSERT_LE(d.size(), 32u);
  }
  for (int i = 0; i < 10; ++i) {
    d = ops::max_of(d, D::two_state(2.0 + 0.2 * i, 0.9), 32);
    ASSERT_LE(d.size(), 32u);
  }
}

}  // namespace
