// Tests for prob/dist_kernels: the span kernels must match the
// value-level reference arithmetic the object-model tests are written
// against (DiscreteDistribution::from_atoms and tests/dist_ops) BIT FOR
// BIT on arbitrary inputs — including the degenerate corners (single
// atoms, values inside the kValueMergeEps merge window, near-underflow
// probabilities) — and the truncation kernel must account every merge in
// its certificate.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "dist_ops.hpp"
#include "prob/discrete_distribution.hpp"
#include "prob/dist_kernels.hpp"
#include "prob/rng.hpp"

namespace {

namespace dk = expmk::prob::dist_kernels;
using expmk::prob::Atom;
using expmk::prob::DiscreteDistribution;
namespace ops = expmk::dist_ops;

/// Random raw atom soup: duplicate values, eps-close values, a sprinkle of
/// non-positive and near-underflow probabilities.
std::vector<Atom> random_atoms(expmk::prob::Xoshiro256pp& rng,
                               std::size_t count) {
  std::vector<Atom> atoms;
  atoms.reserve(count);
  double base = 0.0;
  for (std::size_t i = 0; i < count; ++i) {
    const double roll = rng.uniform();
    if (roll < 0.15 && !atoms.empty()) {
      // Exact duplicate of an earlier value.
      atoms.push_back({atoms[i / 2].value, rng.uniform()});
    } else if (roll < 0.3 && !atoms.empty()) {
      // Inside the relative merge window.
      atoms.push_back({atoms.back().value * (1.0 + 1e-13), rng.uniform()});
    } else {
      base += rng.uniform() * 2.0;
      atoms.push_back({base, rng.uniform()});
    }
    if (roll > 0.9) atoms.back().prob = 0.0;            // dropped
    if (roll > 0.8 && roll <= 0.9) atoms.back().prob = 1e-300;  // underflow-ish
  }
  return atoms;
}

/// random_atoms with a guaranteed positive total mass, wrapped into a
/// distribution (for tests of the binary operations).
DiscreteDistribution random_dist(expmk::prob::Xoshiro256pp& rng,
                                 std::size_t count) {
  std::vector<Atom> raw = random_atoms(rng, count);
  double total = 0.0;
  for (const Atom& at : raw) total += at.prob > 0.0 ? at.prob : 0.0;
  if (total <= 0.0) raw.front().prob = 0.5;
  return DiscreteDistribution::from_atoms(std::move(raw));
}

std::vector<Atom> kernel_canonicalize(std::vector<Atom> atoms) {
  atoms.resize(dk::canonicalize(atoms));
  return atoms;
}

void expect_bit_identical(std::span<const Atom> a, std::span<const Atom> b,
                          const std::string& where) {
  ASSERT_EQ(a.size(), b.size()) << where;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].value, b[i].value) << where << " value " << i;
    EXPECT_EQ(a[i].prob, b[i].prob) << where << " prob " << i;
  }
}

TEST(DistKernels, CanonicalizeMatchesFromAtomsBitwise) {
  expmk::prob::Xoshiro256pp rng(42, 7);
  for (int round = 0; round < 50; ++round) {
    const auto raw = random_atoms(rng, 1 + round % 17);
    double total = 0.0;
    for (const Atom& at : raw) total += at.prob > 0.0 ? at.prob : 0.0;
    if (total <= 0.0) {
      EXPECT_THROW((void)kernel_canonicalize(raw), std::invalid_argument);
      EXPECT_THROW((void)DiscreteDistribution::from_atoms(raw),
                   std::invalid_argument);
      continue;
    }
    const auto object = DiscreteDistribution::from_atoms(raw);
    const auto flat = kernel_canonicalize(raw);
    expect_bit_identical(flat, object.atoms(),
                         "round " + std::to_string(round));
  }
}

TEST(DistKernels, ConvolveAndMaxOfMatchObjectOpsBitwise) {
  expmk::prob::Xoshiro256pp rng(1234, 9);
  for (int round = 0; round < 30; ++round) {
    const auto x = random_dist(rng, 1 + round % 9);
    const auto y = random_dist(rng, 1 + (round * 3) % 7);
    const std::string where = "round " + std::to_string(round);

    std::vector<Atom> conv(x.size() * y.size());
    std::vector<Atom> conv_scratch(conv.size());
    dk::TruncationCert uncapped;
    conv.resize(dk::convolve(x.atoms(), y.atoms(), 0, uncapped, conv,
                             conv_scratch, {}));
    expect_bit_identical(conv, ops::convolve(x, y).atoms(),
                         where + " convolve");

    std::vector<Atom> mx(x.size() + y.size());
    mx.resize(dk::max_of(x.atoms(), y.atoms(), mx));
    expect_bit_identical(mx, ops::max_of(x, y).atoms(),
                         where + " max_of");
  }
}

TEST(DistKernels, TruncateMatchesObjectTruncatedBitwise) {
  expmk::prob::Xoshiro256pp rng(77, 3);
  for (int round = 0; round < 30; ++round) {
    const auto x = random_dist(rng, 6 + round % 24);
    for (const std::size_t budget : {std::size_t{1}, std::size_t{3},
                                     std::size_t{5}, std::size_t{100}}) {
      dk::TruncationCert object_cert;
      const auto object = ops::truncated(x, budget, &object_cert);

      std::vector<Atom> flat(x.atoms());
      std::vector<double> gaps(flat.size() - 1);
      dk::TruncationCert flat_cert;
      flat.resize(dk::truncate(flat, budget, flat_cert, gaps));

      const std::string where = "round " + std::to_string(round) +
                                " budget " + std::to_string(budget);
      expect_bit_identical(flat, object.atoms(), where);
      EXPECT_EQ(flat_cert.events, object_cert.events) << where;
      EXPECT_EQ(flat_cert.merges, object_cert.merges) << where;
      EXPECT_EQ(flat_cert.up, object_cert.up) << where;
      EXPECT_EQ(flat_cert.down, object_cert.down) << where;

      if (x.size() <= budget) {
        EXPECT_EQ(flat_cert.events, 0u) << where;
      } else {
        // The merges moved mass both ways but preserved the mean of THIS
        // distribution (exactly, in real arithmetic).
        EXPECT_GE(flat_cert.merges, 1u) << where;
        EXPECT_GE(flat_cert.up, 0.0) << where;
        EXPECT_GE(flat_cert.down, 0.0) << where;
        EXPECT_NEAR(object.mean(), x.mean(),
                    1e-12 * std::max(1.0, std::fabs(x.mean())))
            << where;
      }
    }
  }
}

TEST(DistKernels, DegenerateCases) {
  // Single atom round-trips untouched through every kernel.
  std::vector<Atom> one = {{2.5, 1.0}};
  EXPECT_EQ(dk::canonicalize(one), 1u);
  EXPECT_EQ(one[0].value, 2.5);
  EXPECT_EQ(one[0].prob, 1.0);
  EXPECT_EQ(dk::mean(one), 2.5);
  EXPECT_EQ(dk::quantile(one, 0.5), 2.5);

  // two_state degenerates to point masses at the probability boundaries,
  // exactly like the object constructor.
  Atom buf[2];
  EXPECT_EQ(dk::two_state(3.0, 1.0, buf), 1u);
  EXPECT_EQ(buf[0].value, 3.0);
  EXPECT_EQ(dk::two_state(3.0, 0.0, buf), 1u);
  EXPECT_EQ(buf[0].value, 6.0);
  EXPECT_EQ(dk::two_state(3.0, 0.25, buf), 2u);
  const auto object = DiscreteDistribution::two_state(3.0, 0.25);
  EXPECT_EQ(buf[0].value, object.atoms()[0].value);
  EXPECT_EQ(buf[0].prob, object.atoms()[0].prob);
  EXPECT_EQ(buf[1].value, object.atoms()[1].value);
  EXPECT_EQ(buf[1].prob, object.atoms()[1].prob);

  // Values inside the merge window collapse onto the FIRST value, with
  // summed mass (the exact consolidate rule).
  std::vector<Atom> close = {{1.0, 0.5}, {1.0 + 1e-13, 0.5}};
  EXPECT_EQ(dk::canonicalize(close), 1u);
  EXPECT_EQ(close[0].value, 1.0);
  EXPECT_EQ(close[0].prob, 1.0);

  // Near-underflow masses survive consolidation and renormalize.
  std::vector<Atom> tiny = {{1.0, 1e-300}, {2.0, 1e-300}};
  EXPECT_EQ(dk::canonicalize(tiny), 2u);
  EXPECT_NEAR(tiny[0].prob, 0.5, 1e-12);

  // shift is the reference shifted().
  std::vector<Atom> sh = {{1.0, 0.5}, {2.0, 0.5}};
  dk::shift(sh, 1.5);
  const auto shifted = ops::shifted(
      DiscreteDistribution::from_atoms({{1.0, 0.5}, {2.0, 0.5}}), 1.5);
  expect_bit_identical(sh, shifted.atoms(), "shift");
}

TEST(DistKernels, FromCanonicalTrustsItsInput) {
  const auto d = DiscreteDistribution::from_canonical({{1.0, 0.25},
                                                       {2.0, 0.75}});
  EXPECT_EQ(d.size(), 2u);
  EXPECT_EQ(d.atoms()[0].prob, 0.25);
  EXPECT_THROW((void)DiscreteDistribution::from_canonical({}),
               std::invalid_argument);
}

}  // namespace
