// Cross-backend property suite for the SIMD kernel layer.
//
// Two stages dispatch on util::simd (util/simd.hpp): Philox's two bulk
// fills. Their AVX2 arms must reproduce the scalar twins BIT FOR BIT —
// the Philox fill is exact integer arithmetic. The distribution kernels
// have one implementation each, so the atom-kernel tests below (convolve,
// max_of and canonicalize under each forced backend, over randomized atom
// soups with the single-atom, eps-close and near-underflow corners from
// test_dist_kernels) hold trivially and stay as a guard against a
// dispatched second path coming back.
// It also pins the Philox generator to the published Random123
// known-answer vectors and to fixed stream vectors, and re-pins the MC
// engine's threads-1/2/7 bit-identity contract on top of the
// counter-based RNG.

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/failure_model.hpp"
#include "gen/lu.hpp"
#include "mc/engine.hpp"
#include "mc/trial.hpp"
#include "prob/discrete_distribution.hpp"
#include "prob/dist_kernels.hpp"
#include "prob/rng.hpp"
#include "reference_estimators.hpp"
#include "test_helpers.hpp"
#include "util/simd.hpp"

namespace {

namespace dk = expmk::prob::dist_kernels;
namespace sd = expmk::util::simd;
using expmk::prob::Atom;
using expmk::prob::DiscreteDistribution;

/// RAII: pin a backend for one scope, restore the previous one after.
class BackendGuard {
 public:
  explicit BackendGuard() : previous_(sd::active()) {}
  ~BackendGuard() { sd::force(previous_); }
  BackendGuard(const BackendGuard&) = delete;
  BackendGuard& operator=(const BackendGuard&) = delete;

 private:
  sd::Backend previous_;
};

/// Random raw atom soup (same corner mix as test_dist_kernels): duplicate
/// values, eps-close values, zero and near-underflow probabilities.
std::vector<Atom> random_atoms(expmk::prob::Xoshiro256pp& rng,
                               std::size_t count) {
  std::vector<Atom> atoms;
  atoms.reserve(count);
  double base = 0.0;
  for (std::size_t i = 0; i < count; ++i) {
    const double roll = rng.uniform();
    if (roll < 0.15 && !atoms.empty()) {
      atoms.push_back({atoms[i / 2].value, rng.uniform()});
    } else if (roll < 0.3 && !atoms.empty()) {
      atoms.push_back({atoms.back().value * (1.0 + 1e-13), rng.uniform()});
    } else {
      base += rng.uniform() * 2.0;
      atoms.push_back({base, rng.uniform()});
    }
    if (roll > 0.9) atoms.back().prob = 0.0;
    if (roll > 0.8 && roll <= 0.9) atoms.back().prob = 1e-300;
  }
  return atoms;
}

DiscreteDistribution random_dist(expmk::prob::Xoshiro256pp& rng,
                                 std::size_t count) {
  std::vector<Atom> raw = random_atoms(rng, count);
  double total = 0.0;
  for (const Atom& at : raw) total += at.prob > 0.0 ? at.prob : 0.0;
  if (total <= 0.0) raw.front().prob = 0.5;
  return DiscreteDistribution::from_atoms(std::move(raw));
}

void expect_bit_identical(std::span<const Atom> a, std::span<const Atom> b,
                          const std::string& where) {
  ASSERT_EQ(a.size(), b.size()) << where;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].value, b[i].value) << where << " value " << i;
    EXPECT_EQ(a[i].prob, b[i].prob) << where << " prob " << i;
  }
}

struct KernelOutputs {
  std::vector<Atom> convolve;
  std::vector<Atom> max_of;
  std::vector<Atom> canonicalize;
};

/// Runs convolve, max_of and canonicalize on (x, y, soup) under the
/// CURRENTLY forced backend.
KernelOutputs run_kernels(const DiscreteDistribution& x,
                          const DiscreteDistribution& y,
                          const std::vector<Atom>& soup) {
  KernelOutputs out;
  out.convolve.resize(x.size() * y.size());
  std::vector<Atom> scratch(out.convolve.size());
  dk::TruncationCert uncapped;
  out.convolve.resize(dk::convolve(x.atoms(), y.atoms(), 0, uncapped,
                                   out.convolve, scratch, {}));
  out.max_of.resize(x.size() + y.size());
  out.max_of.resize(dk::max_of(x.atoms(), y.atoms(), out.max_of));
  out.canonicalize = soup;
  out.canonicalize.resize(dk::canonicalize(out.canonicalize));
  return out;
}

TEST(SimdKernels, AtomKernelsBitIdenticalAcrossBackends) {
  BackendGuard guard;
  if (!sd::force(sd::Backend::Avx2)) {
    GTEST_SKIP() << "CPU has no AVX2; scalar is the only backend";
  }
  expmk::prob::Xoshiro256pp rng(2024, 11);
  for (int round = 0; round < 60; ++round) {
    // Sizes sweep through the vector widths: 1 hits the single-atom
    // corner, 2..4 exercise partial lanes, larger sizes the full blocks.
    const auto x = random_dist(rng, 1 + round % 13);
    const auto y = random_dist(rng, 1 + (round * 5) % 11);
    auto soup = random_atoms(rng, 1 + round % 17);
    double total = 0.0;
    for (const Atom& at : soup) total += at.prob > 0.0 ? at.prob : 0.0;
    if (total <= 0.0) soup.front().prob = 0.5;

    ASSERT_TRUE(sd::force(sd::Backend::Avx2));
    const KernelOutputs vec = run_kernels(x, y, soup);
    ASSERT_TRUE(sd::force(sd::Backend::Scalar));
    const KernelOutputs ref = run_kernels(x, y, soup);

    const std::string where = "round " + std::to_string(round);
    expect_bit_identical(vec.convolve, ref.convolve, where + " convolve");
    expect_bit_identical(vec.max_of, ref.max_of, where + " max_of");
    expect_bit_identical(vec.canonicalize, ref.canonicalize,
                         where + " canonicalize");
  }
}

TEST(SimdKernels, CornerSoupsBitIdenticalAcrossBackends) {
  BackendGuard guard;
  if (!sd::force(sd::Backend::Avx2)) {
    GTEST_SKIP() << "CPU has no AVX2; scalar is the only backend";
  }
  const auto single = DiscreteDistribution::point(3.25);
  // Values inside the kValueMergeEps window and near-underflow masses in
  // one soup: convolve's eps-merge must see the same filled atoms under
  // either backend.
  const std::vector<Atom> corner_soup = {
      {1.0, 0.25},          {1.0 * (1.0 + 1e-13), 0.25},
      {1.0000001, 1e-300},  {2.0, 0.0},
      {2.5, 0.5},           {2.5, 1e-308},
      {2.5 * (1.0 + 5e-14), 0.125}};
  const auto corner = DiscreteDistribution::from_atoms(corner_soup);

  for (const auto* x : {&single, &corner}) {
    for (const auto* y : {&single, &corner}) {
      ASSERT_TRUE(sd::force(sd::Backend::Avx2));
      const KernelOutputs vec = run_kernels(*x, *y, corner_soup);
      ASSERT_TRUE(sd::force(sd::Backend::Scalar));
      const KernelOutputs ref = run_kernels(*x, *y, corner_soup);
      expect_bit_identical(vec.convolve, ref.convolve, "corner convolve");
      expect_bit_identical(vec.max_of, ref.max_of, "corner max_of");
      expect_bit_identical(vec.canonicalize, ref.canonicalize,
                           "corner canonicalize");
    }
  }
}

// Published Random123 known-answer vectors for Philox4x32-10: the raw
// block bijection at three (counter, key) points.
TEST(SimdKernels, PhiloxKnownAnswerVectors) {
  using expmk::prob::Philox4x32;
  const auto zero = Philox4x32::block({0, 0, 0, 0}, {0, 0});
  EXPECT_EQ(zero[0], 0x6627e8d5u);
  EXPECT_EQ(zero[1], 0xe169c58du);
  EXPECT_EQ(zero[2], 0xbc57ac4cu);
  EXPECT_EQ(zero[3], 0x9b00dbd8u);

  const auto ones = Philox4x32::block(
      {0xffffffffu, 0xffffffffu, 0xffffffffu, 0xffffffffu},
      {0xffffffffu, 0xffffffffu});
  EXPECT_EQ(ones[0], 0x408f276du);
  EXPECT_EQ(ones[1], 0x41c83b0eu);
  EXPECT_EQ(ones[2], 0xa20bc7c6u);
  EXPECT_EQ(ones[3], 0x6d5451fdu);

  const auto pi = Philox4x32::block(
      {0x243f6a88u, 0x85a308d3u, 0x13198a2eu, 0x03707344u},
      {0xa4093822u, 0x299f31d0u});
  EXPECT_EQ(pi[0], 0xd16cfe09u);
  EXPECT_EQ(pi[1], 0x94fdccebu);
  EXPECT_EQ(pi[2], 0x5001e420u);
  EXPECT_EQ(pi[3], 0x24126ea1u);
}

// The buffered generator is blocks in counter order: draw 2k of stream
// (seed, t) packs words (x1:x0) of block k, draw 2k+1 packs (x3:x2) —
// under BOTH backends. This pins the whole chain: splitmix64 key
// derivation, counter layout (trial_lo, trial_hi, block_lo, block_hi),
// buffering, and the AVX2 fill's interleave/pack.
TEST(SimdKernels, PhiloxBufferedStreamMatchesBlocksOnBothBackends) {
  using expmk::prob::Philox4x32;
  BackendGuard guard;
  const std::uint64_t seed = 123;
  const std::uint64_t stream = 42;
  expmk::prob::SplitMix64 sm(seed);
  const std::uint64_t k = sm.next();
  const std::array<std::uint32_t, 2> key = {
      static_cast<std::uint32_t>(k), static_cast<std::uint32_t>(k >> 32)};

  for (const sd::Backend backend :
       {sd::Backend::Scalar, sd::Backend::Avx2}) {
    if (!sd::force(backend)) continue;  // no AVX2 on this CPU
    Philox4x32 rng(seed, stream);
    for (std::uint32_t i = 0; i < 96; ++i) {
      const std::uint64_t got = rng();
      const auto words = Philox4x32::block(
          {static_cast<std::uint32_t>(stream), 0u, i / 2, 0u}, key);
      const std::uint64_t want =
          (i % 2 == 0)
              ? ((static_cast<std::uint64_t>(words[1]) << 32) | words[0])
              : ((static_cast<std::uint64_t>(words[3]) << 32) | words[2]);
      ASSERT_EQ(got, want) << "backend " << sd::name(backend) << " draw "
                           << i;
    }
  }
}

// Fixed stream vectors: the first draws of (seed 0xC0FFEE, stream 7).
// Guards the seeding scheme itself — a change to the key derivation or
// counter layout shows up here even if buffer and block stay consistent.
TEST(SimdKernels, PhiloxReferenceStreamVectors) {
  expmk::prob::Philox4x32 rng(0xC0FFEE, 7);
  const std::uint64_t expected[6] = {
      0x82ce93f9091039b6ull, 0x0b6358cfec8c4a3full, 0x66f66db7cd12738dull,
      0x5e6cc1cc022ccd35ull, 0x419da9f87613cec8ull, 0x10139883e116ed7bull};
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(rng(), expected[i]) << "draw " << i;
  }
}

// The trial-major lane fill is the per-stream draws, transposed:
// tile[j * 8 + l] is draw 2 * block0 + j of Philox4x32(seed, t0 + l) —
// checked against raw blocks and, from block 0, against the stream's
// operator() — under BOTH backends, for lane groups inside, below and
// across t = 2^32, block offsets and counts that are not multiples of the
// AVX2 fill's in-flight group, and with the entries past the tile
// untouched.
TEST(SimdKernels, PhiloxLaneFillMatchesStreamsOnBothBackends) {
  using expmk::prob::Philox4x32;
  constexpr std::size_t kL = Philox4x32::kLanes;
  constexpr std::uint64_t kGuard = 0x5EED5EED5EED5EEDull;
  BackendGuard guard;
  const std::uint64_t seed = 0xC0FFEE;
  struct Range {
    std::uint64_t block0;
    std::size_t blocks;
  };
  for (const sd::Backend backend :
       {sd::Backend::Scalar, sd::Backend::Avx2}) {
    if (!sd::force(backend)) continue;  // no AVX2 on this CPU
    for (const std::uint64_t t0 :
         {std::uint64_t{0}, std::uint64_t{1000},
          (std::uint64_t{1} << 32) - 3, (std::uint64_t{1} << 40) + 5}) {
      for (const Range r : {Range{0, 1}, Range{0, 7}, Range{3, 16},
                            Range{8, 5}, Range{(std::uint64_t{1} << 32) - 2, 4}}) {
        std::vector<std::uint64_t> tile(2 * r.blocks * kL + kL, kGuard);
        Philox4x32::fill_lanes(seed, t0, r.block0, r.blocks, tile.data());
        for (std::size_t l = 0; l < kL; ++l) {
          // Block indices near 2^32 are only reachable as raw blocks.
          const std::uint64_t t = t0 + l;
          expmk::prob::SplitMix64 sm(seed);
          const std::uint64_t k = sm.next();
          const std::array<std::uint32_t, 2> key = {
              static_cast<std::uint32_t>(k), static_cast<std::uint32_t>(k >> 32)};
          for (std::size_t j = 0; j < 2 * r.blocks; ++j) {
            const std::uint64_t b = r.block0 + j / 2;
            const auto words = Philox4x32::block(
                {static_cast<std::uint32_t>(t), static_cast<std::uint32_t>(t >> 32),
                 static_cast<std::uint32_t>(b), static_cast<std::uint32_t>(b >> 32)},
                key);
            const std::uint64_t want =
                j % 2 == 0
                    ? ((static_cast<std::uint64_t>(words[1]) << 32) | words[0])
                    : ((static_cast<std::uint64_t>(words[3]) << 32) | words[2]);
            ASSERT_EQ(tile[j * kL + l], want)
                << sd::name(backend) << " t0 " << t0 << " block0 " << r.block0
                << " lane " << l << " draw " << j;
          }
          if (r.block0 == 0) {  // and the stream operator() returns
            Philox4x32 rng(seed, t);
            for (std::size_t j = 0; j < 2 * r.blocks; ++j) {
              ASSERT_EQ(tile[j * kL + l], rng()) << "lane " << l << " draw " << j;
            }
          }
        }
        for (std::size_t i = 2 * r.blocks * kL; i < tile.size(); ++i) {
          ASSERT_EQ(tile[i], kGuard) << "fill wrote past its tile";
        }
      }
    }
  }
}

// The MC engine's trial-lane kernel under each forced backend: every lane
// equals the reference one-trial loop on that trial's stream (the fill is
// the only dispatched part of the lane path).
TEST(SimdKernels, TrialLanesMatchOneTrialKernelOnBothBackends) {
  BackendGuard guard;
  const auto g = expmk::gen::lu_dag(7);  // 140 tasks
  for (const auto retry : {expmk::core::RetryModel::Geometric,
                           expmk::core::RetryModel::TwoState}) {
    const auto sc = expmk::test::uniform_scenario(g, 0.2, retry);
    std::vector<double> lanes(g.task_count() * expmk::mc::kTrialLanes);
    std::vector<double> durations;
    for (const sd::Backend backend :
         {sd::Backend::Scalar, sd::Backend::Avx2}) {
      if (!sd::force(backend)) continue;
      for (std::uint64_t t0 = 0; t0 < 64; t0 += expmk::mc::kTrialLanes) {
        const auto obs = expmk::mc::run_trial_lanes(sc, 5, t0, lanes);
        for (std::size_t l = 0; l < expmk::mc::kTrialLanes; ++l) {
          expmk::prob::McRng rng(5, t0 + l);
          ASSERT_EQ(obs.makespan[l],
                    expmk::ref::reference_trial(sc, rng, durations))
              << sd::name(backend) << " trial " << t0 + l;
        }
      }
    }
  }
}

// The engine's reproducibility contract on top of the counter-based RNG:
// mean and variance are BIT-identical for 1, 2 and 7 threads (exact
// double equality). Same shape as the test_csr pin, re-asserted here so
// the SIMD suite is self-contained when run against either backend.
TEST(SimdKernels, McEngineBitIdenticalAcrossThreadCountsWithPhilox) {
  const auto g = expmk::gen::lu_dag(5);
  const auto sc = expmk::test::uniform_scenario(
      g, 0.01, expmk::core::RetryModel::Geometric);
  expmk::mc::McConfig cfg;
  cfg.trials = 3000;
  cfg.seed = 0xC0FFEE;
  cfg.threads = 1;
  const auto r1 = expmk::mc::run_monte_carlo(sc, cfg);
  cfg.threads = 2;
  const auto r2 = expmk::mc::run_monte_carlo(sc, cfg);
  cfg.threads = 7;
  const auto r7 = expmk::mc::run_monte_carlo(sc, cfg);
  EXPECT_EQ(r1.mean, r2.mean);
  EXPECT_EQ(r2.mean, r7.mean);
  EXPECT_EQ(r1.variance, r2.variance);
  EXPECT_EQ(r2.variance, r7.variance);
}

}  // namespace
