// tests/test_hier_goldens.cpp
//
// Bitwise goldens for the hierarchical evaluators sp.hier, dodin.hier and
// mc.hier. Each row runs one method on one scenario at one atom budget
// (0 = exact, 32, 256), starting from an empty module memo, and pins:
//
//  * the registry answer: supported, mean, mean_lo, mean_hi, std_error;
//  * the memo traffic of that cold call (process-wide hit/miss deltas);
//  * for sp.hier / dodin.hier, a second direct call on the now-warm memo:
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

Row measure(const scenario::Scenario& sc, int scenario, int method,
            std::size_t atoms) {
  Row row{};
  row.scenario = scenario;
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
    {0, 1, 32, true, 0x1.1dfe4aedbc03ap+1, 0x1.1adf3df00580ep+1, 0x1.211d57eb72866p+1, 0x0p+0, 4, 1, 5, 0, 306, 32, 0xf86d3a2b2594d811ULL},
    {0, 1, 256, true, 0x1.1e13c3c919ceep+1, 0x1.1db8c15f243c2p+1, 0x1.1e6ec6330f61ap+1, 0x0p+0, 4, 1, 5, 0, 306, 256, 0xeca4baa825867c8aULL},
    {0, 2, 0, true, 0x1.10fcc5b8dc54ep+1, 0x1.10fcc5b8dc54ep+1, 0x1.10fcc5b8dc54ep+1, 0x1.59abad7a000b5p-10, 4, 1, 0, 0, 0, 0, 0x0000000000000000ULL},
    {0, 2, 32, true, 0x1.10fcc5b8dc54ep+1, 0x1.10fcc5b8dc54ep+1, 0x1.10fcc5b8dc54ep+1, 0x1.59abad7a000b5p-10, 4, 1, 0, 0, 0, 0, 0x0000000000000000ULL},
    {0, 2, 256, true, 0x1.10fcc5b8dc54ep+1, 0x1.10fcc5b8dc54ep+1, 0x1.10fcc5b8dc54ep+1, 0x1.59abad7a000b5p-10, 4, 1, 0, 0, 0, 0, 0x0000000000000000ULL},
    {1, 0, 0, true, 0x1.f31ebf66cf284p+4, 0x1.f31ebf66cf284p+4, 0x1.f31ebf66cf284p+4, 0x0p+0, 0, 41, 1, 0, 0, 8400, 0xe12dcff71799b647ULL},
    {1, 0, 32, true, 0x1.f31ebf66cf274p+4, 0x1.f0f673b7511bbp+4, 0x1.f5470b164d32dp+4, 0x0p+0, 0, 41, 1, 0, 0, 32, 0x835201183de9323aULL},
    {1, 0, 256, true, 0x1.f31ebf66cf275p+4, 0x1.f3058c831508ap+4, 0x1.f337f24a8946p+4, 0x0p+0, 0, 41, 1, 0, 0, 256, 0xce0206b39f043ff4ULL},
    {1, 1, 0, true, 0x1.f31ebf66cf284p+4, 0x1.f31ebf66cf284p+4, 0x1.f31ebf66cf284p+4, 0x0p+0, 0, 41, 1, 0, 0, 8400, 0xe12dcff71799b647ULL},
    {1, 1, 32, true, 0x1.f31ebf66cf274p+4, 0x1.f0f673b7511bbp+4, 0x1.f5470b164d32dp+4, 0x0p+0, 0, 41, 1, 0, 0, 32, 0x835201183de9323aULL},
    {1, 1, 256, true, 0x1.f31ebf66cf275p+4, 0x1.f3058c831508ap+4, 0x1.f337f24a8946p+4, 0x0p+0, 0, 41, 1, 0, 0, 256, 0xce0206b39f043ff4ULL},
    {1, 2, 0, true, 0x1.f2b6c166de749p+4, 0x1.f2b6c166de749p+4, 0x1.f2b6c166de749p+4, 0x1.edbea8cc60662p-5, 0, 41, 0, 0, 0, 0, 0x0000000000000000ULL},
    {1, 2, 32, true, 0x1.f2b82d7937a18p+4, 0x1.f08fe1c9bb4e8p+4, 0x1.f4e07928b3f48p+4, 0x1.ebc723f69da93p-5, 0, 41, 0, 0, 0, 0, 0x0000000000000000ULL},
    {1, 2, 256, true, 0x1.f2b516a33f417p+4, 0x1.f29be3bf86e89p+4, 0x1.f2ce4986f79a5p+4, 0x1.edac599e86c6ap-5, 0, 41, 0, 0, 0, 0, 0x0000000000000000ULL},
    {2, 0, 0, true, 0x1.e4dd0c1e3eeecp+4, 0x1.e4dd0c1e3eeecp+4, 0x1.e4dd0c1e3eeecp+4, 0x0p+0, 0, 41, 1, 0, 0, 57792, 0x19f2b1a4429b2662ULL},
    {2, 0, 32, true, 0x1.e4dd0c1e3ef11p+4, 0x1.e21b3dbd3c04dp+4, 0x1.e79eda7f41dd6p+4, 0x0p+0, 0, 41, 1, 0, 0, 32, 0x88b645cdde86b061ULL},
    {2, 0, 256, true, 0x1.e4dd0c1e3ef18p+4, 0x1.e4b459e22db38p+4, 0x1.e505be5a502f8p+4, 0x0p+0, 0, 41, 1, 0, 0, 256, 0xc2a12096a5e10b52ULL},
    {2, 1, 0, true, 0x1.e4dd0c1e3eeecp+4, 0x1.e4dd0c1e3eeecp+4, 0x1.e4dd0c1e3eeecp+4, 0x0p+0, 0, 41, 1, 0, 0, 57792, 0x19f2b1a4429b2662ULL},
    {2, 1, 32, true, 0x1.e4dd0c1e3ef11p+4, 0x1.e21b3dbd3c04dp+4, 0x1.e79eda7f41dd6p+4, 0x0p+0, 0, 41, 1, 0, 0, 32, 0x88b645cdde86b061ULL},
    {2, 1, 256, true, 0x1.e4dd0c1e3ef18p+4, 0x1.e4b459e22db38p+4, 0x1.e505be5a502f8p+4, 0x0p+0, 0, 41, 1, 0, 0, 256, 0xc2a12096a5e10b52ULL},
    {2, 2, 0, true, 0x1.e4bd15ad00201p+4, 0x1.e4bd15ad00201p+4, 0x1.e4bd15ad00201p+4, 0x1.8dc8d9904298ap-5, 0, 41, 0, 0, 0, 0, 0x0000000000000000ULL},
    {2, 2, 32, true, 0x1.e4fb62094cce9p+4, 0x1.e23993a8496p+4, 0x1.e7bd306a503d3p+4, 0x1.8c8166a8a41cp-5, 0, 41, 0, 0, 0, 0, 0x0000000000000000ULL},
    {2, 2, 256, true, 0x1.e4bcc6ae703ffp+4, 0x1.e49414725f8c8p+4, 0x1.e4e578ea80f36p+4, 0x1.8dceb8725b236p-5, 0, 41, 0, 0, 0, 0, 0x0000000000000000ULL},
};

TEST(HierGoldens, BitIdenticalToRecordedAnswers) {
  std::size_t checked = 0;
  for (int s = 0; s < 3; ++s) {
    const scenario::Scenario sc = make_case(s);
    for (int m = 0; m < 3; ++m) {
      for (const std::size_t atoms : kBudgets) {
        const Row got = measure(sc, s, m, atoms);
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
