// Differential test of the atom-cap kernels (prob/dist_kernels) against
// the halving-pass truncation they replaced (tests/dist_kernels_reference).
//
// Fixed-seed folds of chains of two-state laws, at pfail 1e-3 to 0.5 and
// budgets 32 and 256, in the three fold shapes the SP/Dodin engines run:
//  * 256x2: a 256-atom law convolved with one task law (a series step);
//  * 256+256: the max of two 256-atom laws (a parallel step);
//  * 256x256: two 256-atom laws convolved (a module series fold; binned).
// Each capped fold is followed by an uncapped max with a third law, so
// the certified envelope faces a non-linear downstream pipeline. Checks:
//  * the envelope contains the untruncated pipeline's mean;
//  * the capped law has mass 1, strictly ascending values, <= budget
//    atoms, and a symmetric certificate (every group moves its mass to
//    its own mean, so the mass moved up equals the mass moved down);
//  * the summed envelope width is no wider than the oracle's on the same
//    folds. Per-case width ratios are printed.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "dist_kernels_reference.hpp"
#include "prob/atom.hpp"
#include "prob/dist_kernels.hpp"
#include "prob/rng.hpp"

namespace {

namespace dk = expmk::prob::dist_kernels;
using expmk::prob::Atom;
using Law = std::vector<Atom>;

enum class Shape { Series2, Parallel, Series256 };
constexpr const char* kShapeNames[] = {"256x2", "256+256", "256x256"};

Law two_state(double a, double pfail) {
  Law out(2);
  out.resize(dk::two_state(a, 1.0 - pfail, out));
  return out;
}

/// Uncapped X + Y.
Law convolve_exact(const Law& x, const Law& y) {
  Law out(x.size() * y.size());
  Law scratch(out.size());
  dk::TruncationCert uncapped;
  out.resize(dk::convolve(x, y, 0, uncapped, out, scratch, {}));
  return out;
}

Law max_exact(const Law& x, const Law& y) {
  Law out(x.size() + y.size());
  out.resize(dk::max_of(x, y, out));
  return out;
}

/// The exact law of a chain of 8 two-state tasks with generic weights in
/// [1, 2): 2^8 = 256 distinct sums.
Law chain256(expmk::prob::Xoshiro256pp& rng, double pfail) {
  Law law = two_state(1.0 + rng.uniform(), pfail);
  for (int i = 1; i < 8; ++i) {
    law = convolve_exact(law, two_state(1.0 + rng.uniform(), pfail));
  }
  return law;
}

Law fold_exact(Shape shape, const Law& x, const Law& y) {
  return shape == Shape::Parallel ? max_exact(x, y) : convolve_exact(x, y);
}

struct Capped {
  Law law;
  dk::TruncationCert cert;
};

/// The library's capped fold: the budgeted convolve, or max_of + truncate.
Capped fold_library(Shape shape, const Law& x, const Law& y,
                    std::size_t budget) {
  Capped c;
  if (shape == Shape::Parallel) {
    c.law = max_exact(x, y);
    std::vector<double> gaps(c.law.size() - 1);
    c.law.resize(dk::truncate(c.law, budget, c.cert, gaps));
    return c;
  }
  const dk::ConvolveScratch need =
      dk::convolve_scratch(x.size(), y.size(), budget);
  c.law.resize(need.out);
  Law scratch(need.atoms);
  std::vector<double> gaps(need.gaps);
  c.law.resize(dk::convolve(x, y, budget, c.cert, c.law, scratch, gaps));
  return c;
}

/// The oracle's capped fold: the exact fold, then halving-pass truncation.
Capped fold_oracle(Shape shape, const Law& x, const Law& y,
                   std::size_t budget) {
  Capped c;
  c.law = fold_exact(shape, x, y);
  std::vector<double> gaps(2 * (c.law.size() - 1));
  c.law.resize(expmk::test::reference_truncate(c.law, budget, c.cert, gaps));
  return c;
}

TEST(BudgetedKernels, EnvelopeNoWiderThanHalvingOracle) {
  expmk::prob::Xoshiro256pp rng(2026, 26);
  double width_library = 0.0;
  double width_oracle = 0.0;
  std::size_t cases = 0;
  for (const double pfail : {1e-3, 1e-2, 0.1, 0.5}) {
    for (const Shape shape : {Shape::Series2, Shape::Parallel, Shape::Series256}) {
      const Law x = chain256(rng, pfail);
      const Law y = shape == Shape::Series2 ? two_state(1.0 + rng.uniform(), pfail)
                                            : chain256(rng, pfail);
      const Law z = chain256(rng, pfail);  // the downstream max operand
      ASSERT_EQ(x.size(), 256u);
      const double exact = dk::mean(max_exact(fold_exact(shape, x, y), z));
      for (const std::size_t budget : {std::size_t{32}, std::size_t{256}}) {
        const std::string where = std::string(kShapeNames[static_cast<int>(shape)]) +
                                  " pfail " + std::to_string(pfail) +
                                  " budget " + std::to_string(budget);
        const Capped lib = fold_library(shape, x, y, budget);
        const Capped ref = fold_oracle(shape, x, y, budget);
        ASSERT_LE(lib.law.size(), budget) << where;
        ASSERT_GE(lib.cert.events, 1u) << where;

        double mass = 0.0;
        for (std::size_t i = 0; i < lib.law.size(); ++i) {
          mass += lib.law[i].prob;
          EXPECT_GT(lib.law[i].prob, 0.0) << where << " @" << i;
          if (i > 0) EXPECT_LT(lib.law[i - 1].value, lib.law[i].value) << where << " @" << i;
        }
        EXPECT_NEAR(mass, 1.0, 1e-12) << where;

        const double up = lib.cert.up;
        const double down = lib.cert.down;
        EXPECT_NEAR(up, down, 1e-9 * (up + down) + 1e-15) << where;

        const double mean = dk::mean(max_exact(lib.law, z));
        const double slack = 1e-12 * exact;
        EXPECT_LE(mean - up - slack, exact) << where;
        EXPECT_GE(mean + down + slack, exact) << where;

        const double w_lib = up + down;
        const double w_ref = ref.cert.up + ref.cert.down;
        width_library += w_lib;
        width_oracle += w_ref;
        ++cases;
        std::printf("%-8s pfail %-6g budget %-4zu width %.3e oracle %.3e ratio %.4f\n",
                    kShapeNames[static_cast<int>(shape)], pfail, budget, w_lib, w_ref,
                    w_ref > 0.0 ? w_lib / w_ref : 0.0);
      }
    }
  }
  EXPECT_EQ(cases, 24u);
  std::printf("summed width %.4e oracle %.4e ratio %.4f\n", width_library,
              width_oracle, width_library / width_oracle);
  EXPECT_LE(width_library, width_oracle);
}

}  // namespace
