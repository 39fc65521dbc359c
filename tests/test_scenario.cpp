// Tests for src/scenario and the Scenario-based evaluation API:
//
//  * FailureSpec / Scenario::compile validation and cached-state checks;
//  * heterogeneous per-task rates end-to-end: validated against the exact
//    oracle on <= 10-task DAGs (fo/so/mc/cmc and the rest of the
//    heterogeneous-capable catalogue), uniform-equivalence when the rate
//    vector is constant, and clean capability gating for the methods that
//    remain uniform-only;
//  * the compile-once contract: a sweep compiles exactly one Scenario per
//    (generator, size, pfail) cell, however many methods run on it;
//  * conditional-MC censoring surfaced structurally (EvalResult and the
//    expmk-sweep-v3 artifact schema).

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "core/exact.hpp"
#include "core/failure_model.hpp"
#include "core/first_order.hpp"
#include "core/second_order.hpp"
#include "exp/evaluator.hpp"
#include "exp/sweep.hpp"
#include "gen/random_dags.hpp"
#include "graph/csr.hpp"
#include "graph/topological.hpp"
#include "mc/engine.hpp"
#include "scenario/scenario.hpp"
#include "test_helpers.hpp"

namespace {

using expmk::core::calibrate;
using expmk::core::FailureModel;
using expmk::core::RetryModel;
using expmk::exp::EstimateKind;
using expmk::exp::EvalOptions;
using expmk::exp::EvalResult;
using expmk::exp::Evaluator;
using expmk::exp::EvaluatorRegistry;
using expmk::graph::Dag;
using expmk::graph::TaskId;
using expmk::scenario::FailureSpec;
using expmk::scenario::Scenario;

/// Deterministic per-task rate vector around the calibrated uniform
/// lambda: multipliers cycle through a fixed spread so every DAG gets
/// genuinely heterogeneous (but moderate) rates.
std::vector<double> spread_rates(const Dag& g, double pfail) {
  const double lambda = calibrate(g, pfail).lambda;
  const double mult[] = {0.3, 1.0, 2.0, 0.6, 1.4, 0.1};
  std::vector<double> rates(g.task_count());
  for (TaskId i = 0; i < g.task_count(); ++i) {
    rates[i] = lambda * mult[i % 6];
  }
  return rates;
}

std::vector<std::pair<std::string, Dag>> fixture_dags() {
  std::vector<std::pair<std::string, Dag>> dags;
  dags.emplace_back("diamond", expmk::test::diamond(0.4, 0.3, 0.5, 0.2));
  dags.emplace_back("n_graph", expmk::test::n_graph(0.2, 0.3, 0.25, 0.15));
  dags.emplace_back("chain6", expmk::gen::chain_dag(6, 7));
  dags.emplace_back("forkjoin", expmk::gen::fork_join_dag(5, 11));
  dags.emplace_back("sp6", expmk::gen::random_series_parallel(6, 3));
  dags.emplace_back("erdos10", expmk::gen::erdos_dag(10, 0.3, 5));
  return dags;
}

// --------------------------------------------------------------- compile

TEST(FailureSpec, ValidationAndAccessors) {
  EXPECT_THROW((void)FailureSpec::per_task({}), std::invalid_argument);

  const FailureSpec het = FailureSpec::per_task({0.1, 0.2});
  EXPECT_TRUE(het.heterogeneous());
  EXPECT_THROW((void)het.uniform_lambda(), std::logic_error);
  EXPECT_THROW((void)het.uniform_model(), std::logic_error);

  const FailureSpec uni = FailureSpec::uniform(0.5);
  EXPECT_FALSE(uni.heterogeneous());
  EXPECT_DOUBLE_EQ(uni.uniform_lambda(), 0.5);
  EXPECT_DOUBLE_EQ(uni.uniform_model().lambda, 0.5);
}

TEST(ScenarioCompile, RejectsBadSpecs) {
  const Dag g = expmk::test::diamond();
  // Rate vector size must match the DAG.
  EXPECT_THROW(
      (void)Scenario::compile(g, FailureSpec::per_task({0.1, 0.2})),
      std::invalid_argument);
  // Negative / non-finite rates.
  EXPECT_THROW((void)Scenario::compile(
                   g, FailureSpec::per_task({0.1, -0.2, 0.1, 0.1})),
               std::invalid_argument);
  EXPECT_THROW((void)Scenario::compile(
                   g, FailureSpec::per_task({0.1, std::nan(""), 0.1, 0.1})),
               std::invalid_argument);
  // Negative / non-finite uniform lambda.
  EXPECT_THROW((void)Scenario::compile(g, FailureSpec::uniform(-1.0)),
               std::invalid_argument);
  // A cyclic graph fails at the CSR build.
  Dag cyclic;
  const auto a = cyclic.add_task(1.0);
  const auto b = cyclic.add_task(1.0);
  cyclic.add_edge(a, b);
  cyclic.add_edge(b, a);
  EXPECT_THROW((void)Scenario::compile(cyclic, FailureSpec::uniform(0.1)),
               std::invalid_argument);
}

// Dag::add_task rejects negative weights but its `weight < 0.0` check is
// false for NaN (and +inf passes), so a poisoned weight used to flow
// silently into every method. Compile is the choke point: it must throw.
TEST(ScenarioCompile, RejectsNonFiniteTaskWeights) {
  for (const double bad :
       {std::nan(""), std::numeric_limits<double>::infinity()}) {
    Dag g = expmk::test::diamond();
    g.set_weight(2, bad);
    EXPECT_THROW((void)Scenario::compile(g, FailureSpec::uniform(0.1)),
                 std::invalid_argument)
        << bad;
    // Heterogeneous specs hit the same weight validation.
    EXPECT_THROW((void)Scenario::compile(
                     g, FailureSpec::per_task({0.1, 0.1, 0.1, 0.1})),
                 std::invalid_argument)
        << bad;
  }
  // Zero weights (virtual source/sink nodes) remain legal.
  Dag g = expmk::test::diamond();
  g.set_weight(0, 0.0);
  EXPECT_NO_THROW((void)Scenario::compile(g, FailureSpec::uniform(0.1)));
}

TEST(ScenarioCompile, CachesExitTasks) {
  const Dag g = expmk::gen::erdos_dag(12, 0.3, 17);
  const Scenario sc = Scenario::compile(g, FailureSpec::uniform(0.05));
  // Exit positions, listed in ascending exit id order.
  const auto exits = g.exit_tasks();
  ASSERT_EQ(sc.exits().size(), exits.size());
  for (std::size_t i = 0; i < exits.size(); ++i) {
    EXPECT_EQ(sc.exits()[i], sc.csr().position_of(exits[i])) << i;
  }
}

TEST(ScenarioCompile, CachedStateMatchesTheLibraryPrimitives) {
  const Dag g = expmk::gen::erdos_dag(12, 0.3, 17);
  const FailureModel model = calibrate(g, 0.01);
  const Scenario sc =
      Scenario::compile(g, FailureSpec(model), RetryModel::TwoState);

  EXPECT_EQ(sc.task_count(), g.task_count());
  EXPECT_FALSE(sc.heterogeneous());
  EXPECT_FALSE(sc.failure_free());
  EXPECT_DOUBLE_EQ(sc.uniform_model().lambda, model.lambda);
  EXPECT_EQ(sc.critical_path(), expmk::graph::critical_path_length(g));
  EXPECT_EQ(sc.mean_weight(), g.mean_weight());
  EXPECT_EQ(sc.total_weight(), g.total_weight());

  // Per-task constants in position order, bit-identical to the
  // primitives they cache.
  ASSERT_EQ(sc.p_success_csr().size(), g.task_count());
  ASSERT_EQ(sc.rates_csr().size(), g.task_count());
  for (std::uint32_t pos = 0; pos < g.task_count(); ++pos) {
    const TaskId id = sc.csr().original_id(pos);
    const double p = model.p_success(g.weight(id));
    EXPECT_EQ(sc.p_success_csr()[pos], p) << pos;
    EXPECT_EQ(sc.rates_csr()[pos], model.lambda) << pos;
    EXPECT_EQ(sc.q_fail_csr()[pos], 1.0 - p) << pos;
    EXPECT_EQ(sc.inv_log_q_csr()[pos], 1.0 / std::log1p(-p)) << pos;
    EXPECT_EQ(sc.weights_csr()[pos], g.weight(id)) << pos;
  }
  // The CSR order is a valid topological order of the Dag.
  for (TaskId u = 0; u < g.task_count(); ++u) {
    for (const TaskId v : g.successors(u)) {
      EXPECT_LT(sc.csr().position_of(u), sc.csr().position_of(v));
    }
  }
}

// ------------------------------------------------- heterogeneous rates

// Constant per-task rates must agree with the uniform spec (different
// code path, same model) to float-noise precision.
TEST(Heterogeneous, ConstantRateVectorMatchesUniform) {
  expmk::exp::Workspace ws;
  const Dag g = expmk::gen::erdos_dag(10, 0.3, 5);
  const FailureModel model = calibrate(g, 0.01);
  const std::vector<double> rates(g.task_count(), model.lambda);

  const Scenario uni =
      Scenario::compile(g, FailureSpec(model), RetryModel::TwoState);
  const Scenario het = Scenario::compile(g, FailureSpec::per_task(rates),
                                         RetryModel::TwoState);
  ASSERT_TRUE(het.heterogeneous());

  const double exact_u = expmk::core::exact_two_state(uni, ws);
  const double exact_h = expmk::core::exact_two_state(het, ws);
  // Same p_success vector => identical enumeration.
  EXPECT_EQ(exact_u, exact_h);

  const double fo_u = expmk::core::first_order(uni, ws).expected_makespan();
  const double fo_h = expmk::core::first_order(het, ws).expected_makespan();
  EXPECT_NEAR(fo_h, fo_u, 1e-12 * fo_u);

  const double so_u = expmk::core::second_order(uni, ws).expected_makespan;
  const double so_h = expmk::core::second_order(het, ws).expected_makespan;
  EXPECT_NEAR(so_h, so_u, 1e-12 * so_u);

  // The MC kernel consumes per-task constant arrays either way: with an
  // identical p table the sampled stream is identical.
  expmk::mc::McConfig cfg;
  cfg.trials = 1'000;
  cfg.seed = 5;
  cfg.threads = 1;
  EXPECT_EQ(expmk::mc::run_monte_carlo(uni, cfg).mean,
            expmk::mc::run_monte_carlo(het, cfg).mean);
}

// Heterogeneous rates end-to-end against the exact oracle on <= 10-task
// DAGs: every heterogeneous-capable two-state evaluator must respect its
// accuracy contract (with margin: the spread pushes some per-task rates
// to 2x the calibrated lambda, scaling the closed-form error terms).
TEST(Heterogeneous, CatalogueValidatedAgainstExactOracle) {
  expmk::exp::Workspace ws;
  EvalOptions opt;
  opt.mc_trials = 60'000;
  opt.seed = 913;
  opt.threads = 1;

  const auto& reg = EvaluatorRegistry::builtin();
  for (const auto& [label, g] : fixture_dags()) {
    ASSERT_LE(g.task_count(), 10u) << label;
    const Scenario sc = Scenario::compile(
        g, FailureSpec::per_task(spread_rates(g, 0.01)),
        RetryModel::TwoState);
    const double exact = expmk::core::exact_two_state(sc, ws);
    ASSERT_GT(exact, 0.0) << label;

    for (const Evaluator& e : reg.evaluators()) {
      const auto& caps = e.capabilities();
      if (!caps.two_state || !caps.heterogeneous) continue;
      const auto r = e.evaluate(sc, opt);
      const std::string where = label + " / " + std::string(e.name());
      if (!r.supported) {
        // Only the strict SP reducers may decline: flat `sp` on any
        // non-SP graph, `sp.hier` when the collapsed quotient is still
        // not series-parallel.
        EXPECT_TRUE(e.name() == std::string_view("sp") ||
                    e.name() == std::string_view("sp.hier"))
            << where << ": " << r.note;
        continue;
      }
      switch (caps.kind) {
        case EstimateKind::Estimate: {
          const double tol = 8.0 * caps.rel_tolerance * exact +
                             (caps.stochastic ? 6.0 * r.std_error : 0.0);
          EXPECT_NEAR(r.mean, exact, tol) << where;
          break;
        }
        case EstimateKind::LowerBound:
          EXPECT_LE(r.mean, exact * (1.0 + 1e-9)) << where;
          break;
        case EstimateKind::UpperBound:
          EXPECT_GE(r.mean, exact * (1.0 - 1e-9)) << where;
          break;
      }
    }
  }
}

// The SP evaluator is EXACT on series-parallel graphs — also under
// heterogeneous rates (its per-task 2-state laws carry each task's own
// p_i), which pins the heterogeneous plumbing end to end with zero
// statistical slack.
TEST(Heterogeneous, SpEvaluatorExactOnSpGraphs) {
  expmk::exp::Workspace ws;
  const Dag g = expmk::gen::random_series_parallel(8, 21);
  ASSERT_LE(g.task_count(), 10u);
  const Scenario sc = Scenario::compile(
      g, FailureSpec::per_task(spread_rates(g, 0.02)),
      RetryModel::TwoState);
  const auto r =
      EvaluatorRegistry::builtin().find("sp")->evaluate(sc, {});
  ASSERT_TRUE(r.supported) << r.note;
  EXPECT_NEAR(r.mean, expmk::core::exact_two_state(sc, ws), 1e-9);
}

// Heterogeneous rates actually matter: doubling one task's rate moves the
// first-order estimate by that task's own sensitivity term.
TEST(Heterogeneous, RatesAreNotCollapsedToTheirMean) {
  expmk::exp::Workspace ws;
  const Dag g = expmk::test::diamond(0.4, 0.3, 0.5, 0.2);
  const FailureModel model = calibrate(g, 0.01);
  std::vector<double> rates(g.task_count(), model.lambda);
  rates[2] *= 8.0;  // task C sits on the critical path A-C-D

  const Scenario het = Scenario::compile(g, FailureSpec::per_task(rates),
                                         RetryModel::TwoState);
  const Scenario uni =
      Scenario::compile(g, FailureSpec(model), RetryModel::TwoState);
  EXPECT_GT(expmk::core::first_order(het, ws).expected_makespan(),
            expmk::core::first_order(uni, ws).expected_makespan());
  EXPECT_GT(expmk::core::exact_two_state(het, ws),
            expmk::core::exact_two_state(uni, ws));
}

// The flat-distribution-engine refactor lifted the last two heterogeneous
// gates: exact.geo enumerates each task's own truncated-geometric state
// table, and dodin builds each task's own 2-state law from the scenario's
// cached p_i. The whole builtin catalogue now accepts per-task rates; the
// retry-model gates are still enforced.
TEST(Heterogeneous, FormerlyGatedMethodsNowSupportPerTaskRates) {
  expmk::exp::Workspace ws;
  const Dag g = expmk::test::diamond();
  const std::vector<double> rates = {0.1, 0.2, 0.3, 0.1};
  const auto& reg = EvaluatorRegistry::builtin();
  for (const Evaluator& e : reg.evaluators()) {
    EXPECT_TRUE(e.capabilities().heterogeneous) << e.name();
  }

  const Scenario het_geo = Scenario::compile(
      g, FailureSpec::per_task(rates), RetryModel::Geometric);
  const auto geo = reg.find("exact.geo")->evaluate(het_geo, {});
  ASSERT_TRUE(geo.supported) << geo.note;
  EXPECT_GT(geo.mean, expmk::graph::critical_path_length(g));

  const Scenario het_ts = Scenario::compile(
      g, FailureSpec::per_task(rates), RetryModel::TwoState);
  const auto dodin = reg.find("dodin")->evaluate(het_ts, {});
  ASSERT_TRUE(dodin.supported) << dodin.note;
  // The diamond is series-parallel, so untruncated Dodin is exact — also
  // under heterogeneous rates (the per-task plumbing end to end).
  EXPECT_NEAR(dodin.mean, expmk::core::exact_two_state(het_ts, ws), 1e-12);

  // Retry-model gating is unchanged: dodin is a two-state method.
  const auto gated = reg.find("dodin")->evaluate(het_geo, {});
  EXPECT_FALSE(gated.supported);
  EXPECT_NE(gated.note.find("geometric retry model"), std::string::npos);
}

// ---------------------------------------------------- compile-once sweep

// The sweep contract the redesign exists for: one Scenario::compile per
// (generator, size, pfail) cell, no matter how many methods run on it.
TEST(CompileOnce, SweepCompilesOneScenarioPerCell) {
  expmk::exp::SweepGrid grid;
  grid.generators = {"lu", "chain"};
  grid.sizes = {3};
  grid.pfails = {0.001, 0.01};
  grid.methods = {"fo", "so", "sculli", "bounds.lower", "bounds.upper"};
  grid.reference = "exact";
  grid.options.mc_trials = 100;

  const std::uint64_t before = Scenario::compiled_count();
  const auto result = expmk::exp::SweepRunner().run(grid, 2);
  const std::uint64_t compiled = Scenario::compiled_count() - before;

  const std::size_t cells = 2 * 1 * 2;  // generators x sizes x pfails
  EXPECT_EQ(compiled, cells);
  // 6 methods ran per cell (reference prepended): without the compile-
  // once scenario this would have been 24 compiles.
  ASSERT_EQ(result.cells.size(), cells * 6);
  for (const auto& cell : result.cells) {
    EXPECT_TRUE(cell.result.supported) << cell.method;
  }
}

// ------------------------------------------------- structural censoring

// Conditional-MC censoring is a structural field now, not a string note:
// at a microscopic 1 - p0 the rejection cap binds, censored_trials lands
// in EvalResult (and from there in the v2 sweep schema), and the note
// stays free for real diagnostics.
TEST(CensoredTrials, SurfacedStructurallyThroughEvaluatorAndArtifact) {
  const Dag g = expmk::test::diamond(0.3, 0.3, 0.3, 0.3);
  // 1 - p0 ~ 1.2e-9: a rejection loop capped at 1e6 draws practically
  // never sees a failure, so every trial is censored (deterministic under
  // the fixed seed).
  const Scenario sc = Scenario::compile(g, FailureSpec::uniform(1e-9),
                                        RetryModel::TwoState);
  EvalOptions opt;
  opt.mc_trials = 2;
  opt.seed = 3;
  opt.threads = 1;
  const auto r = EvaluatorRegistry::builtin().find("cmc")->evaluate(sc, opt);
  ASSERT_TRUE(r.supported) << r.note;
  EXPECT_EQ(r.censored_trials, 2u);
  EXPECT_EQ(r.note.find("censored"), std::string::npos)
      << "censoring must not be string-encoded anymore: " << r.note;

  // The v2 artifact schema carries the field for every cell.
  expmk::exp::SweepGrid grid;
  grid.generators = {"chain"};
  grid.sizes = {3};
  grid.pfails = {0.01};
  grid.methods = {"fo"};
  grid.reference = "";
  const auto sweep = expmk::exp::SweepRunner().run(grid);
  const std::string json = sweep.json();
  EXPECT_NE(json.find("\"schema\": \"expmk-sweep-v3\""), std::string::npos);
  EXPECT_NE(json.find("\"censored_trials\": 0"), std::string::npos);
  const std::string csv = sweep.csv();
  EXPECT_NE(csv.find(",censored_trials,"), std::string::npos);
}

}  // namespace
