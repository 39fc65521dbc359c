// tests/test_hier_goldens.cpp
//
// Bitwise goldens for the hierarchical evaluators sp.hier, dodin.hier and
// mc.hier. Each row runs one method on one scenario at one atom budget
// (0 = exact, 32, 256) on a freshly compiled scenario with the process's
// law index emptied, and pins:
//
//  * the registry answer: supported, mean, mean_lo, mean_hi, std_error;
//  * the memo traffic of that cold call (process-wide hit/miss deltas);
//  * for sp.hier / dodin.hier, a second direct call on the now-warm store:
//    its HierStats hits/misses, Dodin's duplication count, and a mean
//    that must equal the cold one bit for bit;
//  * the captured makespan law: atom count and an FNV-1a hash over the
//    bit patterns of every (value, prob) pair.
//
// Doubles are recorded as hex-float literals, so a one-ulp drift in any
// module law, fold order or truncation certificate fails here. On a
// mismatch the test prints the measured row in table syntax.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "exp/evaluator.hpp"
#include "exp/hier.hpp"
#include "exp/workspace.hpp"
#include "gen/lu.hpp"
#include "gen/random_dags.hpp"
#include "scenario/scenario.hpp"

namespace {

using namespace expmk;

/// The three pinned scenarios: a non-SP quotient (LU k=6), a quotient
/// that collapses to one module, and per-task rates on a fork-join.
scenario::Scenario make_case(int which) {
  switch (which) {
    case 0:
      return scenario::Scenario::calibrated(gen::lu_dag(6), 0.01);
    case 1:
      return scenario::Scenario::calibrated(
          gen::tiled_fork_join(3, 4, 3, 7, {1.0, 4.0}), 0.05);
    default: {
      const graph::Dag g = gen::tiled_fork_join(3, 3, 4, 3, {1.0, 3.0});
      std::vector<double> rates(g.task_count());
      for (std::size_t i = 0; i < rates.size(); ++i) {
        rates[i] = 0.02 * static_cast<double>(1 + (i / 4) % 3);
      }
      return scenario::Scenario::compile(
          g, scenario::FailureSpec::per_task(std::move(rates)));
    }
  }
}

constexpr const char* kCaseNames[] = {"lu6", "tfj_3_4_3", "tfj_rates"};
constexpr const char* kMethods[] = {"sp.hier", "dodin.hier", "mc.hier"};
constexpr std::size_t kBudgets[] = {0, 32, 256};

struct Row {
  int scenario;
  int method;
  std::size_t atoms;
  bool supported;
  double mean, mean_lo, mean_hi, std_error;
  std::uint64_t cold_hits, cold_misses;
  std::uint64_t warm_hits, warm_misses;
  std::uint64_t duplications;
  std::size_t law_atoms;
  std::uint64_t law_hash;
};

std::uint64_t bits(double x) {
  std::uint64_t u;
  std::memcpy(&u, &x, sizeof u);
  return u;
}

std::uint64_t law_hash(const prob::DiscreteDistribution& d) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const prob::Atom& a : d.atoms()) {
    for (const std::uint64_t w : {bits(a.value), bits(a.prob)}) {
      h = (h ^ w) * 0x100000001b3ULL;
    }
  }
  return h;
}

Row measure(int which, int method, std::size_t atoms) {
  // Every row compiles its own scenario: a scenario keeps the laws it
  // built in its own store, so a reused one would start the next row warm.
  const scenario::Scenario sc = make_case(which);
  Row row{};
  row.scenario = which;
  row.method = method;
  row.atoms = atoms;

  exp::hier::memo_clear();
  exp::EvalOptions opt;
  opt.sp_max_atoms = atoms;
  opt.dodin_atoms = atoms;
  opt.capture_distribution = true;
  opt.mc_trials = 2'000;
  opt.seed = 99;
  opt.threads = 1;
  const exp::EvalResult r =
      exp::EvaluatorRegistry::builtin().find(kMethods[method])->evaluate(sc,
                                                                         opt);
  const exp::hier::MemoStats cold = exp::hier::memo_stats();
  row.supported = r.supported;
  if (r.supported) {
    row.mean = r.mean;
    row.mean_lo = r.mean_lo;
    row.mean_hi = r.mean_hi;
    row.std_error = r.std_error;
  }
  row.cold_hits = cold.hits;
  row.cold_misses = cold.misses;
  if (r.distribution) {
    row.law_atoms = r.distribution->size();
    row.law_hash = law_hash(*r.distribution);
  }

  exp::Workspace ws;
  if (method == 0) {
    const auto warm = exp::hier::evaluate_sp_hier(sc, atoms, ws);
    row.warm_hits = warm.stats.memo_hits;
    row.warm_misses = warm.stats.memo_misses;
    EXPECT_EQ(warm.is_series_parallel, r.supported);
    if (r.supported) EXPECT_EQ(bits(warm.mean), bits(r.mean));
  } else if (method == 1) {
    const auto warm = exp::hier::evaluate_dodin_hier(sc, atoms, ws);
    row.warm_hits = warm.stats.memo_hits;
    row.warm_misses = warm.stats.memo_misses;
    row.duplications = warm.duplications;
    EXPECT_EQ(bits(warm.mean), bits(r.mean));
  }
  exp::hier::memo_clear();
  return row;
}

std::string literal(const Row& r) {
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "{%d, %d, %zu, %s, %a, %a, %a, %a, %llu, %llu, %llu, %llu, "
                "%llu, %zu, 0x%016llxULL},",
                r.scenario, r.method, r.atoms, r.supported ? "true" : "false",
                r.mean, r.mean_lo, r.mean_hi, r.std_error,
                static_cast<unsigned long long>(r.cold_hits),
                static_cast<unsigned long long>(r.cold_misses),
                static_cast<unsigned long long>(r.warm_hits),
                static_cast<unsigned long long>(r.warm_misses),
                static_cast<unsigned long long>(r.duplications), r.law_atoms,
                static_cast<unsigned long long>(r.law_hash));
  return buf;
}

// {scenario, method, atoms, supported, mean, mean_lo, mean_hi, std_error,
//  cold_hits, cold_misses, warm_hits, warm_misses, duplications,
//  law_atoms, law_hash}
const Row kGoldens[] = {
    {0, 0, 0, false, 0x0p+0, 0x0p+0, 0x0p+0, 0x0p+0, 4, 1, 5, 0, 0, 0, 0x0000000000000000ULL},
    {0, 0, 32, false, 0x0p+0, 0x0p+0, 0x0p+0, 0x0p+0, 4, 1, 5, 0, 0, 0, 0x0000000000000000ULL},
    {0, 0, 256, false, 0x0p+0, 0x0p+0, 0x0p+0, 0x0p+0, 4, 1, 5, 0, 0, 0, 0x0000000000000000ULL},
    {0, 1, 0, true, 0x1.1e14e440226f5p+1, 0x1.1e14e440226f5p+1, 0x1.1e14e440226f5p+1, 0x0p+0, 4, 1, 5, 0, 306, 2757, 0x960e97546e251741ULL},
    {0, 1, 32, true, 0x1.1e12d637d482ep+1, 0x1.1d90e029186bep+1, 0x1.1e94cc469099ep+1, 0x0p+0, 4, 1, 5, 0, 306, 32, 0x54738ca33028376aULL},
    {0, 1, 256, true, 0x1.1e14e4378d30cp+1, 0x1.1e14590080359p+1, 0x1.1e156f6e9a2bfp+1, 0x0p+0, 4, 1, 5, 0, 306, 256, 0xef3622c77cc573f6ULL},
    {0, 2, 0, true, 0x1.10fcc5b8dc54ep+1, 0x1.10fcc5b8dc54ep+1, 0x1.10fcc5b8dc54ep+1, 0x1.59abad7a000b5p-10, 4, 1, 0, 0, 0, 0, 0x0000000000000000ULL},
    {0, 2, 32, true, 0x1.10fcc5b8dc54ep+1, 0x1.10fcc5b8dc54ep+1, 0x1.10fcc5b8dc54ep+1, 0x1.59abad7a000b5p-10, 4, 1, 0, 0, 0, 0, 0x0000000000000000ULL},
    {0, 2, 256, true, 0x1.10fcc5b8dc54ep+1, 0x1.10fcc5b8dc54ep+1, 0x1.10fcc5b8dc54ep+1, 0x1.59abad7a000b5p-10, 4, 1, 0, 0, 0, 0, 0x0000000000000000ULL},
    {1, 0, 0, true, 0x1.f31ebf66cf284p+4, 0x1.f31ebf66cf284p+4, 0x1.f31ebf66cf284p+4, 0x0p+0, 0, 41, 1, 0, 0, 8400, 0xe12dcff71799b647ULL},
    {1, 0, 32, true, 0x1.f31ebf66cf274p+4, 0x1.f2469fbd59ce9p+4, 0x1.f3f6df10447ffp+4, 0x0p+0, 0, 41, 1, 0, 0, 32, 0x966cc0d1c8f92d2bULL},
    {1, 0, 256, true, 0x1.f31ebf66cf273p+4, 0x1.f312ae8dd0b17p+4, 0x1.f32ad03fcd9cfp+4, 0x0p+0, 0, 41, 1, 0, 0, 256, 0xae80412308cac6ffULL},
    {1, 1, 0, true, 0x1.f31ebf66cf284p+4, 0x1.f31ebf66cf284p+4, 0x1.f31ebf66cf284p+4, 0x0p+0, 0, 41, 1, 0, 0, 8400, 0xe12dcff71799b647ULL},
    {1, 1, 32, true, 0x1.f31ebf66cf274p+4, 0x1.f2469fbd59ce9p+4, 0x1.f3f6df10447ffp+4, 0x0p+0, 0, 41, 1, 0, 0, 32, 0x966cc0d1c8f92d2bULL},
    {1, 1, 256, true, 0x1.f31ebf66cf273p+4, 0x1.f312ae8dd0b17p+4, 0x1.f32ad03fcd9cfp+4, 0x0p+0, 0, 41, 1, 0, 0, 256, 0xae80412308cac6ffULL},
    {1, 2, 0, true, 0x1.f2b6c166de749p+4, 0x1.f2b6c166de749p+4, 0x1.f2b6c166de749p+4, 0x1.edbea8cc60662p-5, 0, 41, 0, 0, 0, 0, 0x0000000000000000ULL},
    {1, 2, 32, true, 0x1.f2cb483901b3cp+4, 0x1.f1f3288f8dc19p+4, 0x1.f3a367e275a5fp+4, 0x1.ea7c545a2296fp-5, 0, 41, 0, 0, 0, 0, 0x0000000000000000ULL},
    {1, 2, 256, true, 0x1.f2b308f7c5444p+4, 0x1.f2a6f81ec89d2p+4, 0x1.f2bf19d0c1eb6p+4, 0x1.eccd162f8c6e2p-5, 0, 41, 0, 0, 0, 0, 0x0000000000000000ULL},
    {2, 0, 0, true, 0x1.e4dd0c1e3eeecp+4, 0x1.e4dd0c1e3eeecp+4, 0x1.e4dd0c1e3eeecp+4, 0x0p+0, 0, 41, 1, 0, 0, 57792, 0x19f2b1a4429b2662ULL},
    {2, 0, 32, true, 0x1.e4dd0c1e3ef14p+4, 0x1.e41a0fb862d0ep+4, 0x1.e5a008841b11ap+4, 0x0p+0, 0, 41, 1, 0, 0, 32, 0xb56e8ed54f83e893ULL},
    {2, 0, 256, true, 0x1.e4dd0c1e3ef13p+4, 0x1.e4c8340677cdcp+4, 0x1.e4f1e43606149p+4, 0x0p+0, 0, 41, 1, 0, 0, 256, 0x30902e5da40ef5cfULL},
    {2, 1, 0, true, 0x1.e4dd0c1e3eeecp+4, 0x1.e4dd0c1e3eeecp+4, 0x1.e4dd0c1e3eeecp+4, 0x0p+0, 0, 41, 1, 0, 0, 57792, 0x19f2b1a4429b2662ULL},
    {2, 1, 32, true, 0x1.e4dd0c1e3ef14p+4, 0x1.e41a0fb862d0ep+4, 0x1.e5a008841b11ap+4, 0x0p+0, 0, 41, 1, 0, 0, 32, 0xb56e8ed54f83e893ULL},
    {2, 1, 256, true, 0x1.e4dd0c1e3ef13p+4, 0x1.e4c8340677cdcp+4, 0x1.e4f1e43606149p+4, 0x0p+0, 0, 41, 1, 0, 0, 256, 0x30902e5da40ef5cfULL},
    {2, 2, 0, true, 0x1.e4bd15ad00201p+4, 0x1.e4bd15ad00201p+4, 0x1.e4bd15ad00201p+4, 0x1.8dc8d9904298ap-5, 0, 41, 0, 0, 0, 0, 0x0000000000000000ULL},
    {2, 2, 32, true, 0x1.e4bd7d233a0ep+4, 0x1.e3fa80bd5e752p+4, 0x1.e580798915a6ep+4, 0x1.8aea9f2d692bdp-5, 0, 41, 0, 0, 0, 0, 0x0000000000000000ULL},
    {2, 2, 256, true, 0x1.e4bad1de2e2b5p+4, 0x1.e4a5f9c6679aep+4, 0x1.e4cfa9f5f4bbbp+4, 0x1.8d19e97b44a6dp-5, 0, 41, 0, 0, 0, 0, 0x0000000000000000ULL},
};

TEST(HierGoldens, BitIdenticalToRecordedAnswers) {
  std::size_t checked = 0;
  for (int s = 0; s < 3; ++s) {
    for (int m = 0; m < 3; ++m) {
      for (const std::size_t atoms : kBudgets) {
        const Row got = measure(s, m, atoms);
        const Row* want = nullptr;
        for (const Row& g : kGoldens) {
          if (g.scenario == s && g.method == m && g.atoms == atoms) want = &g;
        }
        const std::string where = std::string(kCaseNames[s]) + " " +
                                  kMethods[m] + " atoms=" +
                                  std::to_string(atoms) + "\n  measured " +
                                  literal(got);
        if (want == nullptr) {
          ADD_FAILURE() << "no golden row: " << where;
          continue;
        }
        ++checked;
        EXPECT_EQ(got.supported, want->supported) << where;
        EXPECT_EQ(bits(got.mean), bits(want->mean)) << where;
        EXPECT_EQ(bits(got.mean_lo), bits(want->mean_lo)) << where;
        EXPECT_EQ(bits(got.mean_hi), bits(want->mean_hi)) << where;
        EXPECT_EQ(bits(got.std_error), bits(want->std_error)) << where;
        EXPECT_EQ(got.cold_hits, want->cold_hits) << where;
        EXPECT_EQ(got.cold_misses, want->cold_misses) << where;
        EXPECT_EQ(got.warm_hits, want->warm_hits) << where;
        EXPECT_EQ(got.warm_misses, want->warm_misses) << where;
        EXPECT_EQ(got.duplications, want->duplications) << where;
        EXPECT_EQ(got.law_atoms, want->law_atoms) << where;
        EXPECT_EQ(got.law_hash, want->law_hash) << where;
      }
    }
  }
  EXPECT_EQ(checked, std::size(kGoldens));
}

}  // namespace
