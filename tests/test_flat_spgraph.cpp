// Tests for the flat spgraph engine (spgraph/flat_network.cpp) and the
// certified-truncation / heterogeneous-rate upgrades that ride on it:
//
//  * the FIDELITY property: evaluate_sp_flat / dodin_two_state_flat are
//    bit-identical — means, reduction counts, truncation certificates and
//    captured distributions — to the DiscreteDistribution-object
//    reference reduction (tests/sp_reference.hpp, the executable
//    specification), across DAG families, pfail values, heterogeneous
//    rates and atom budgets; the laws entries (evaluate_sp_laws /
//    dodin_laws) and sp.hier / dodin.hier on non-SP quotients are pinned
//    the same way;
//  * the CERTIFIED INTERVAL property: whenever the atom cap fires, the
//    untruncated computation's mean lies inside [mean_lo, mean_hi] (for
//    sp on SP graphs that is the exact oracle itself);
//  * the lifted heterogeneous gates: dodin validated against the exact
//    oracle on SP DAGs, exact.geo against a hand-built distribution
//    oracle on chains and diamonds, per-task rates throughout.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "dist_ops.hpp"
#include "core/exact.hpp"
#include "core/failure_model.hpp"
#include "exp/evaluator.hpp"
#include "exp/workspace.hpp"
#include "gen/random_dags.hpp"
#include "prob/discrete_distribution.hpp"
#include "scenario/scenario.hpp"
#include "exp/hier.hpp"
#include "gen/cholesky.hpp"
#include "gen/lu.hpp"
#include "gen/qr.hpp"
#include "graph/sp_tree.hpp"
#include "sp_reference.hpp"
#include "spgraph/dodin.hpp"
#include "spgraph/sp_reduce.hpp"
#include "test_helpers.hpp"

namespace {

using expmk::core::calibrate;
using expmk::core::RetryModel;
using expmk::exp::EvalOptions;
using expmk::exp::EvaluatorRegistry;
using expmk::exp::Workspace;
using expmk::graph::Dag;
using expmk::graph::TaskId;
using expmk::prob::DiscreteDistribution;
using expmk::prob::dist_kernels::TruncationCert;
using expmk::scenario::FailureSpec;
using expmk::scenario::Scenario;
namespace ops = expmk::dist_ops;

std::vector<std::pair<std::string, Dag>> fixture_dags() {
  std::vector<std::pair<std::string, Dag>> dags;
  dags.emplace_back("diamond", expmk::test::diamond(0.4, 0.3, 0.5, 0.2));
  dags.emplace_back("n_graph", expmk::test::n_graph(0.2, 0.3, 0.25, 0.15));
  dags.emplace_back("chain6", expmk::gen::chain_dag(6, 7));
  dags.emplace_back("sp8", expmk::gen::random_series_parallel(8, 21));
  dags.emplace_back("sp12", expmk::gen::random_series_parallel(12, 5));
  dags.emplace_back("wheatstone", expmk::gen::wheatstone_bridge());
  dags.emplace_back("erdos10", expmk::gen::erdos_dag(10, 0.3, 5));
  return dags;
}

/// The task-duration laws the scenario paths use, built object-side for
/// the reference reduction.
std::vector<DiscreteDistribution> scenario_dists(const Scenario& sc) {
  const Dag& g = sc.dag();
  std::vector<DiscreteDistribution> out;
  out.reserve(g.task_count());
  for (TaskId i = 0; i < g.task_count(); ++i) {
    const double a = g.weight(i);
    out.push_back(a <= 0.0
                      ? DiscreteDistribution::point(0.0)
                      : DiscreteDistribution::two_state(
                            a, sc.p_success_csr()[sc.csr().position_of(i)]));
  }
  return out;
}

std::vector<double> spread_rates(const Dag& g, double pfail) {
  const double lambda = calibrate(g, pfail).lambda;
  const double mult[] = {0.3, 1.0, 2.0, 0.6, 1.4, 0.1};
  std::vector<double> rates(g.task_count());
  for (TaskId i = 0; i < g.task_count(); ++i) {
    rates[i] = lambda * mult[i % 6];
  }
  return rates;
}

void expect_dist_bit_identical(const DiscreteDistribution& a,
                               const DiscreteDistribution& b,
                               const std::string& where) {
  ASSERT_EQ(a.size(), b.size()) << where;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.atoms()[i].value, b.atoms()[i].value) << where << " @" << i;
    EXPECT_EQ(a.atoms()[i].prob, b.atoms()[i].prob) << where << " @" << i;
  }
}

void expect_cert_bit_identical(const TruncationCert& a,
                               const TruncationCert& b,
                               const std::string& where) {
  EXPECT_EQ(a.events, b.events) << where;
  EXPECT_EQ(a.merges, b.merges) << where;
  EXPECT_EQ(a.up, b.up) << where;
  EXPECT_EQ(a.down, b.down) << where;
}

// ------------------------------------------------------ fidelity: sp

// The flat engine claims to replicate the object reduction operation for
// operation; pin means, stats, truncation certificates and the full
// distribution bitwise, on uniform AND heterogeneous scenarios, with and
// without the atom cap, cold and warm workspaces.
TEST(FlatSpFidelity, BitIdenticalToObjectReduction) {
  Workspace warm;
  for (const auto& [label, g] : fixture_dags()) {
    for (const double pfail : {0.001, 0.05, 0.3}) {
      for (const bool het : {false, true}) {
        const Scenario sc =
            het ? Scenario::compile(g, FailureSpec::per_task(
                                           spread_rates(g, pfail)))
                : Scenario::compile(g, FailureSpec(calibrate(g, pfail)));
        for (const std::size_t max_atoms : {std::size_t{0}, std::size_t{3},
                                            std::size_t{16}}) {
          const std::string where = label + " / pfail " +
                                    std::to_string(pfail) +
                                    (het ? " / het" : " / uniform") +
                                    " / atoms " + std::to_string(max_atoms);
          const auto object = expmk::sp_ref::evaluate_sp(
              expmk::sp_ref::ArcNetwork::from_dag(g, scenario_dists(sc)),
              max_atoms);
          DiscreteDistribution captured;
          const auto flat = expmk::sp::evaluate_sp_flat(
              sc, max_atoms, warm, &captured);
          ASSERT_EQ(flat.is_series_parallel, object.is_series_parallel)
              << where;
          EXPECT_EQ(flat.stats.series, object.stats.series) << where;
          EXPECT_EQ(flat.stats.parallel, object.stats.parallel) << where;
          expect_cert_bit_identical(flat.stats.truncation,
                                    object.stats.truncation, where);
          if (object.is_series_parallel) {
            EXPECT_EQ(flat.mean, object.makespan.mean()) << where;
            expect_dist_bit_identical(captured, object.makespan, where);
          }
        }
      }
    }
  }
}

// The factorization DAGs are not series-parallel: at LU k=6 the
// exhaustive first pass stops short of a single arc, and the verdict and
// the reductions it did perform must still match the reference.
TEST(FlatSpFidelity, NonSpVerdictAndCountsOnLu6) {
  const Dag g = expmk::gen::lu_dag(6);
  const Scenario sc = Scenario::compile(g, FailureSpec(calibrate(g, 0.01)));
  const auto object = expmk::sp_ref::evaluate_sp(
      expmk::sp_ref::ArcNetwork::from_dag(g, scenario_dists(sc)), 64);
  Workspace ws;
  const auto flat = expmk::sp::evaluate_sp_flat(sc, 64, ws);
  ASSERT_FALSE(object.is_series_parallel);
  EXPECT_FALSE(flat.is_series_parallel);
  EXPECT_FALSE(flat.stats.reduced_to_single_arc);
  EXPECT_GT(object.stats.series, 0u);
  EXPECT_EQ(flat.stats.series, object.stats.series);
  EXPECT_EQ(flat.stats.parallel, object.stats.parallel);
  expect_cert_bit_identical(flat.stats.truncation, object.stats.truncation,
                            "lu6");
}

// --------------------------------------------------- fidelity: dodin

/// Runs dodin on `sc` through the flat engine (on the warm `ws`) and
/// through the reference; pins counts, certificate, mean and law bitwise.
/// Returns the reference's duplication count.
std::size_t expect_dodin_matches_reference(const Scenario& sc,
                                           const expmk::sp::DodinOptions& opts,
                                           Workspace& ws,
                                           const std::string& where) {
  const auto object = expmk::sp_ref::dodin(
      expmk::sp_ref::ArcNetwork::from_dag(sc.dag(), scenario_dists(sc)),
      opts);
  DiscreteDistribution captured;
  const auto flat = expmk::sp::dodin_two_state_flat(sc, opts, ws, &captured);
  EXPECT_EQ(flat.duplications, object.duplications) << where;
  EXPECT_EQ(flat.series_reductions, object.stats.series) << where;
  EXPECT_EQ(flat.parallel_reductions, object.stats.parallel) << where;
  expect_cert_bit_identical(flat.truncation, object.stats.truncation, where);
  EXPECT_EQ(flat.mean, object.makespan.mean()) << where;
  expect_dist_bit_identical(captured, object.makespan, where);
  return object.duplications;
}

TEST(FlatDodinFidelity, BitIdenticalToObjectTransformation) {
  Workspace warm;
  for (const auto& [label, g] : fixture_dags()) {
    for (const double pfail : {0.01, 0.2}) {
      for (const bool het : {false, true}) {
        const Scenario sc =
            het ? Scenario::compile(g, FailureSpec::per_task(
                                           spread_rates(g, pfail)))
                : Scenario::compile(g, FailureSpec(calibrate(g, pfail)));
        for (const std::size_t max_atoms : {std::size_t{6},
                                            std::size_t{64}}) {
          const std::string where = label + " / pfail " +
                                    std::to_string(pfail) +
                                    (het ? " / het" : " / uniform") +
                                    " / atoms " + std::to_string(max_atoms);
          (void)expect_dodin_matches_reference(
              sc, {.max_atoms = max_atoms}, warm, where);
        }
      }
    }
  }
}

// The fixtures above stop at 12 tasks and a handful of duplications. The
// factorization DAGs take hundreds to over a thousand (the paper_grid
// trio at 256 atoms: LU 8 979, QR 8 654, Cholesky 10 1,164), which is
// where the duplication-site search and the adjacency bookkeeping are
// exercised in earnest. Pin them bitwise, uniform and per-task rates.
TEST(FlatDodinFidelity, BitIdenticalAtPaperSizes) {
  struct Case {
    std::string label;
    Dag g;
    std::size_t atoms;
  };
  std::vector<Case> cases;
  cases.push_back({"lu6", expmk::gen::lu_dag(6), 64});
  cases.push_back({"qr6", expmk::gen::qr_dag(6), 64});
  cases.push_back({"cholesky6", expmk::gen::cholesky_dag(6), 64});
  cases.push_back({"lu8", expmk::gen::lu_dag(8), 256});
  cases.push_back({"qr8", expmk::gen::qr_dag(8), 256});
  cases.push_back({"cholesky10", expmk::gen::cholesky_dag(10), 256});
  Workspace warm;
  for (const auto& [label, g, atoms] : cases) {
    for (const bool het : {false, true}) {
      const Scenario sc =
          het ? Scenario::compile(g, FailureSpec::per_task(
                                         spread_rates(g, 0.01)))
              : Scenario::compile(g, FailureSpec(calibrate(g, 0.01)));
      const std::string where = label + (het ? " / het" : " / uniform") +
                                " / atoms " + std::to_string(atoms);
      EXPECT_GT(expect_dodin_matches_reference(sc, {.max_atoms = atoms},
                                               warm, where),
                100u)
          << where;
    }
  }
}

// The benches and examples build their Scenario from a uniform
// FailureModel; the scenario's cached p_success table must reproduce the
// model's own p_success(a) bitwise end to end — checked here by feeding
// the model-built laws through the laws entry.
TEST(FlatDodinFidelity, UniformScenarioMatchesLegacyDagEntryPoint) {
  const Dag g = expmk::gen::erdos_dag(12, 0.25, 11);
  const auto model = calibrate(g, 0.02);
  const Scenario sc = Scenario::compile(g, FailureSpec(model));
  const expmk::sp::DodinOptions opts{.max_atoms = 32};
  std::vector<DiscreteDistribution> laws;
  for (TaskId i = 0; i < g.task_count(); ++i) {
    const double a = g.weight(i);
    laws.push_back(
        a <= 0.0 ? DiscreteDistribution::point(0.0)
                 : DiscreteDistribution::two_state(a, model.p_success(a)));
  }
  Workspace ws;
  const auto table = ops::law_table(laws);
  const auto legacy = expmk::sp::dodin_laws(g, table.view(), opts, ws);
  const auto scenario_based = expmk::sp::dodin_two_state_flat(sc, opts, ws);
  EXPECT_EQ(scenario_based.mean, legacy.mean);
  EXPECT_EQ(scenario_based.duplications, legacy.duplications);
  EXPECT_EQ(scenario_based.truncation.events, legacy.truncation.events);
}

// The laws entries take any per-task law, not just two-state ones: pin
// them against the reference on wide multi-atom laws (mixtures of a few
// two-state laws), SP and non-SP, capped and exact.
TEST(FlatLawsFidelity, BitIdenticalToReferenceOnMultiAtomLaws) {
  Workspace warm;
  for (const auto& [label, g] : fixture_dags()) {
    std::vector<DiscreteDistribution> laws;
    for (TaskId i = 0; i < g.task_count(); ++i) {
      const double a = 0.1 + g.weight(i);
      laws.push_back(ops::mixture(DiscreteDistribution::two_state(a, 0.7),
                                  0.4,
                                  DiscreteDistribution::two_state(1.5 * a, 0.9)));
    }
    const auto table = ops::law_table(laws);
    for (const std::size_t max_atoms : {std::size_t{0}, std::size_t{5}}) {
      const std::string where = label + " / atoms " + std::to_string(max_atoms);
      const auto ref_sp = expmk::sp_ref::evaluate_sp(
          expmk::sp_ref::ArcNetwork::from_dag(g, laws), max_atoms);
      DiscreteDistribution sp_law;
      const auto sp =
          expmk::sp::evaluate_sp_laws(g, table.view(), max_atoms, warm,
                                      &sp_law);
      ASSERT_EQ(sp.is_series_parallel, ref_sp.is_series_parallel) << where;
      EXPECT_EQ(sp.stats.series, ref_sp.stats.series) << where;
      EXPECT_EQ(sp.stats.parallel, ref_sp.stats.parallel) << where;
      expect_cert_bit_identical(sp.stats.truncation, ref_sp.stats.truncation,
                                where);
      if (sp.is_series_parallel) {
        EXPECT_EQ(sp.mean, ref_sp.makespan.mean()) << where;
        expect_dist_bit_identical(sp_law, ref_sp.makespan, where);
      }
      // Exact Dodin on a non-SP graph duplicates with unbounded supports.
      if (max_atoms == 0 && !sp.is_series_parallel) continue;
      const expmk::sp::DodinOptions opts{.max_atoms = max_atoms};
      const auto ref_dodin = expmk::sp_ref::dodin(
          expmk::sp_ref::ArcNetwork::from_dag(g, laws), opts);
      DiscreteDistribution dodin_law;
      const auto dodin =
          expmk::sp::dodin_laws(g, table.view(), opts, warm, &dodin_law);
      EXPECT_EQ(dodin.duplications, ref_dodin.duplications) << where;
      EXPECT_EQ(dodin.series_reductions, ref_dodin.stats.series) << where;
      EXPECT_EQ(dodin.parallel_reductions, ref_dodin.stats.parallel) << where;
      expect_cert_bit_identical(dodin.truncation, ref_dodin.stats.truncation,
                                where);
      EXPECT_EQ(dodin.mean, ref_dodin.makespan.mean()) << where;
      expect_dist_bit_identical(dodin_law, ref_dodin.makespan, where);
    }
  }
}

// A malformed law table is rejected before the network is built, with
// the entry's name in the message: wrong offset count (no table at all,
// one law short), non-monotone offsets, an empty law, and offsets that
// run past the atom span.
TEST(FlatLawsFidelity, LawCountMismatchThrows) {
  const Dag g = expmk::test::diamond();  // 4 tasks
  const std::vector<expmk::prob::Atom> atoms(8, {1.0, 1.0});
  const std::vector<std::vector<std::uint64_t>> bad = {
      {},                  // no offsets at all
      {0, 2, 4, 6},        // one law short
      {0, 2, 4, 6, 8, 8},  // one offset too many
      {0, 3, 2, 6, 8},     // non-monotone
      {0, 2, 2, 6, 8},     // empty law
      {0, 2, 4, 6, 9},     // past the atom span
  };
  Workspace ws;
  for (const auto& offsets : bad) {
    const expmk::prob::dist_kernels::LawTable table{atoms, offsets};
    const auto expect_named_throw = [&](const char* who, auto&& call) {
      try {
        call();
        ADD_FAILURE() << who << ": no throw for " << offsets.size()
                      << " offsets";
      } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find(who), std::string::npos)
            << e.what();
      }
    };
    expect_named_throw("evaluate_sp_laws", [&] {
      (void)expmk::sp::evaluate_sp_laws(g, table, 0, ws);
    });
    expect_named_throw("dodin_laws",
                       [&] { (void)expmk::sp::dodin_laws(g, table, {}, ws); });
  }
  // The well-formed table over the same atoms is accepted.
  const std::vector<std::uint64_t> good = {0, 2, 4, 6, 8};
  EXPECT_NO_THROW((void)expmk::sp::evaluate_sp_laws(g, {atoms, good}, 0, ws));
}

// sp.hier / dodin.hier reduce the SP-tree quotient on the flat engine.
// Pin both, through the registry AND the hier entry points, bitwise
// against the reference run on the very same module laws
// (build_module_distributions) — on quotients that are NOT series-
// parallel, where the reduction and Dodin's duplications do real work.
TEST(HierFidelity, QuotientReductionBitIdenticalToReference) {
  std::vector<std::pair<std::string, Scenario>> cells;
  cells.emplace_back("lu6", Scenario::calibrated(expmk::gen::lu_dag(6), 0.01));
  cells.emplace_back("layered",
                     Scenario::calibrated(
                         expmk::gen::layered_random(6, 5, 0.35, 17), 0.05));
  {
    const Dag g = expmk::gen::erdos_dag(24, 0.15, 9);
    cells.emplace_back(
        "erdos_het",
        Scenario::compile(g, FailureSpec::per_task(spread_rates(g, 0.05))));
  }
  // Certified envelope exactly as the registry derives it.
  const auto envelope = [](double mean, const TruncationCert& cert) {
    if (cert.events == 0) return std::pair{mean, mean};
    const double slack = 1e-9 * std::max(1.0, std::fabs(mean));
    return std::pair{mean - cert.up - slack, mean + cert.down + slack};
  };
  const auto& reg = EvaluatorRegistry::builtin();
  Workspace ws;
  for (const auto& [label, sc] : cells) {
    const Dag& quotient = sc.sp_decomposition().quotient;
    for (const std::size_t atoms : {std::size_t{16}, std::size_t{64}}) {
      const std::string where = label + " / atoms " + std::to_string(atoms);
      const Workspace::Frame frame(ws);
      const auto md =
          expmk::exp::hier::build_module_distributions(sc, atoms, ws);
      const auto laws = ops::distributions(md.laws);

      // sp.hier: the quotient is not SP, so both sides must say so.
      const auto ref_sp = expmk::sp_ref::evaluate_sp(
          expmk::sp_ref::ArcNetwork::from_dag(quotient, laws), atoms);
      ASSERT_FALSE(ref_sp.is_series_parallel) << where;
      const auto sp =
          expmk::exp::hier::evaluate_sp_hier(sc, atoms, ws, nullptr);
      EXPECT_FALSE(sp.is_series_parallel) << where;
      expect_cert_bit_identical(sp.truncation, md.truncation, where);
      EvalOptions sp_opt;
      sp_opt.sp_max_atoms = atoms;
      EXPECT_FALSE(reg.find("sp.hier")->evaluate(sc, sp_opt, ws).supported)
          << where;

      // dodin.hier.
      const auto ref = expmk::sp_ref::dodin(
          expmk::sp_ref::ArcNetwork::from_dag(quotient, laws),
          {.max_atoms = atoms});
      auto cert = md.truncation;
      cert.accumulate(ref.stats.truncation);
      const double ref_mean = ref.makespan.mean();
      ASSERT_GT(ref.duplications, 0u) << where;

      DiscreteDistribution law;
      const auto hd =
          expmk::exp::hier::evaluate_dodin_hier(sc, atoms, ws, &law);
      EXPECT_EQ(hd.mean, ref_mean) << where;
      EXPECT_EQ(hd.duplications, ref.duplications) << where;
      expect_cert_bit_identical(hd.truncation, cert, where);
      expect_dist_bit_identical(law, ref.makespan, where);

      EvalOptions opt;
      opt.dodin_atoms = atoms;
      opt.capture_distribution = true;
      const auto r = reg.find("dodin.hier")->evaluate(sc, opt, ws);
      ASSERT_TRUE(r.supported) << where << ": " << r.note;
      EXPECT_EQ(r.mean, ref_mean) << where;
      const auto [lo, hi] = envelope(ref_mean, cert);
      EXPECT_EQ(r.mean_lo, lo) << where;
      EXPECT_EQ(r.mean_hi, hi) << where;
      ASSERT_TRUE(r.distribution.has_value()) << where;
      expect_dist_bit_identical(*r.distribution, ref.makespan, where);
    }
  }
}

// ------------------------------------------------- certified intervals

// sp on SP graphs: the untruncated reduction IS the exact oracle, so the
// certified envelope of any truncated run must contain it. >= 5 DAGs x 3
// pfails, uniform and heterogeneous.
TEST(CertifiedTruncation, SpEnvelopeContainsExactMean) {
  const auto& reg = EvaluatorRegistry::builtin();
  const auto* sp = reg.find("sp");
  for (const std::uint64_t seed : {3u, 5u, 9u, 21u, 33u, 77u}) {
    const Dag g = expmk::gen::random_series_parallel(10, seed);
    for (const double pfail : {0.01, 0.1, 0.4}) {
      for (const bool het : {false, true}) {
        const Scenario sc =
            het ? Scenario::compile(g, FailureSpec::per_task(
                                           spread_rates(g, pfail)))
                : Scenario::compile(g, FailureSpec(calibrate(g, pfail)));
        Workspace ws;
        const double exact = expmk::core::exact_two_state(sc, ws);
        for (const std::size_t budget : {std::size_t{2}, std::size_t{4},
                                         std::size_t{8}}) {
          EvalOptions opt;
          opt.sp_max_atoms = budget;
          const auto r = sp->evaluate(sc, opt);
          ASSERT_TRUE(r.supported) << seed;
          const std::string where = "seed " + std::to_string(seed) +
                                    " pfail " + std::to_string(pfail) +
                                    " budget " + std::to_string(budget) +
                                    (het ? " het" : "");
          EXPECT_LE(r.mean_lo, r.mean) << where;
          EXPECT_GE(r.mean_hi, r.mean) << where;
          EXPECT_LE(r.mean_lo, exact) << where;
          EXPECT_GE(r.mean_hi, exact) << where;
          if (r.mean_lo < r.mean_hi) {
            // Truncation fired: it must be visible in the note.
            EXPECT_NE(r.note.find("truncation"), std::string::npos) << where;
          }
        }
        // No truncation -> exactly degenerate envelope.
        EvalOptions exact_opt;
        exact_opt.sp_max_atoms = 0;
        const auto r0 = sp->evaluate(sc, exact_opt);
        ASSERT_TRUE(r0.supported);
        EXPECT_EQ(r0.mean_lo, r0.mean);
        EXPECT_EQ(r0.mean_hi, r0.mean);
        EXPECT_TRUE(r0.note.empty());
      }
    }
  }
}

// dodin: the envelope certifies the truncation error relative to the
// UNTRUNCATED transformation (whose own independence bias it cannot see),
// so the untruncated dodin mean must land inside every budgeted run's
// interval — on SP and non-SP graphs, uniform and heterogeneous.
TEST(CertifiedTruncation, DodinEnvelopeContainsUntruncatedMean) {
  const auto& reg = EvaluatorRegistry::builtin();
  const auto* dodin = reg.find("dodin");
  for (const auto& [label, g] : fixture_dags()) {
    for (const double pfail : {0.01, 0.1, 0.3}) {
      for (const bool het : {false, true}) {
        const Scenario sc =
            het ? Scenario::compile(g, FailureSpec::per_task(
                                           spread_rates(g, pfail)))
                : Scenario::compile(g, FailureSpec(calibrate(g, pfail)));
        EvalOptions untruncated;
        untruncated.dodin_atoms = 0;
        const auto full = dodin->evaluate(sc, untruncated);
        ASSERT_TRUE(full.supported) << label;
        EXPECT_EQ(full.mean_lo, full.mean) << label;
        EXPECT_EQ(full.mean_hi, full.mean) << label;
        for (const std::size_t budget : {std::size_t{2}, std::size_t{5},
                                         std::size_t{16}}) {
          EvalOptions opt;
          opt.dodin_atoms = budget;
          const auto r = dodin->evaluate(sc, opt);
          ASSERT_TRUE(r.supported) << label;
          const std::string where = label + " pfail " +
                                    std::to_string(pfail) + " budget " +
                                    std::to_string(budget) +
                                    (het ? " het" : "");
          EXPECT_LE(r.mean_lo, full.mean) << where;
          EXPECT_GE(r.mean_hi, full.mean) << where;
        }
      }
    }
  }
}

// ------------------------------------------- lifted heterogeneous gates

// dodin with per-task rates against the exact oracle: on SP graphs the
// untruncated transformation is exact, with zero statistical slack.
TEST(HeterogeneousDodin, ExactOnSpGraphsUnderPerTaskRates) {
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u, 6u}) {
    const Dag g = expmk::gen::random_series_parallel(10, seed);
    const Scenario sc = Scenario::compile(
        g, FailureSpec::per_task(spread_rates(g, 0.05)));
    Workspace ws;
    const auto r = expmk::sp::dodin_two_state_flat(sc, {.max_atoms = 0}, ws);
    EXPECT_EQ(r.duplications, 0u) << seed;
    EXPECT_NEAR(r.mean, expmk::core::exact_two_state(sc, ws), 1e-10) << seed;
  }
}

// exact.geo with per-task rates against hand-built distribution oracles:
// a chain's makespan is the convolution of per-task truncated-geometric
// laws, a diamond's is X0 + max(X1, X2) + X3 (independent branches).
TEST(HeterogeneousExactGeo, MatchesDistributionOracles) {
  const int max_exec = 4;
  Workspace ws;

  {
    const Dag g = expmk::gen::chain_dag(5, 3);
    const Scenario sc = Scenario::compile(
        g, FailureSpec::per_task(spread_rates(g, 0.1)),
        RetryModel::Geometric);
    DiscreteDistribution sum = DiscreteDistribution::point(0.0);
    for (TaskId i = 0; i < g.task_count(); ++i) {
      sum = ops::convolve(
          sum, ops::geometric_reexec(
                   g.weight(i), sc.p_success_csr()[sc.csr().position_of(i)],
                   max_exec));
    }
    EXPECT_NEAR(expmk::core::exact_geometric(sc, max_exec, ws), sum.mean(),
                1e-12 * sum.mean());
  }

  {
    const Dag g = expmk::test::diamond(0.4, 0.3, 0.5, 0.2);
    const Scenario sc = Scenario::compile(
        g, FailureSpec::per_task({0.2, 0.6, 0.1, 0.45}),
        RetryModel::Geometric);
    const auto law = [&](TaskId i) {
      return ops::geometric_reexec(
          g.weight(i), sc.p_success_csr()[sc.csr().position_of(i)], max_exec);
    };
    const auto oracle = ops::convolve(
        ops::convolve(law(0), ops::max_of(law(1), law(2))), law(3));
    EXPECT_NEAR(expmk::core::exact_geometric(sc, max_exec, ws),
                oracle.mean(), 1e-12 * oracle.mean());
  }
}

// Constant per-task rates must reproduce the uniform path bitwise (the
// cached p tables are identical).
TEST(HeterogeneousExactGeo, ConstantRatesMatchUniformBitwise) {
  const Dag g = expmk::gen::erdos_dag(8, 0.3, 5);
  const auto model = calibrate(g, 0.02);
  const std::vector<double> rates(g.task_count(), model.lambda);
  const Scenario uni =
      Scenario::compile(g, FailureSpec(model), RetryModel::Geometric);
  const Scenario het = Scenario::compile(g, FailureSpec::per_task(rates),
                                         RetryModel::Geometric);
  Workspace ws;
  EXPECT_EQ(expmk::core::exact_geometric(uni, 3, ws),
            expmk::core::exact_geometric(het, 3, ws));

  const auto& reg = EvaluatorRegistry::builtin();
  const auto r = reg.find("exact.geo")->evaluate(het, {});
  ASSERT_TRUE(r.supported) << r.note;
  EXPECT_EQ(r.mean, expmk::core::exact_geometric(uni, 3, ws));
  EXPECT_EQ(r.mean_lo, r.mean);
  EXPECT_EQ(r.mean_hi, r.mean);
}

}  // namespace
