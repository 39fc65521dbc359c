// Tests for src/exp: the evaluator registry (catalogue, capability
// gating, error containment), the cross-method consistency contract —
// every registered evaluator within its documented tolerance of the exact
// oracle on small generator DAGs — and the sweep determinism contract:
// SweepRunner's JSON artifact is byte-identical across thread counts
// (extending the PR 1 bit-identity contract to the sweep layer).

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/exact.hpp"
#include "core/failure_model.hpp"
#include "exp/evaluator.hpp"
#include "exp/sweep.hpp"
#include "gen/cholesky.hpp"
#include "gen/random_dags.hpp"
#include "graph/csr.hpp"
#include "test_helpers.hpp"

namespace {

using expmk::core::calibrate;
using expmk::core::exact_two_state;
using expmk::core::FailureModel;
using expmk::core::RetryModel;
using expmk::exp::EstimateKind;
using expmk::exp::EvalOptions;
using expmk::exp::Evaluator;
using expmk::exp::EvaluatorRegistry;
using expmk::exp::SweepGrid;
using expmk::exp::SweepResult;
using expmk::exp::SweepRunner;
using expmk::test::uniform_scenario;

TEST(Registry, CatalogueIsComplete) {
  const auto& reg = EvaluatorRegistry::builtin();
  for (const char* name :
       {"exact", "exact.geo", "fo", "so", "sp", "dodin", "sculli", "corlca",
        "clark", "bounds.lower", "bounds.upper", "mc", "cmc", "sp.hier",
        "dodin.hier", "mc.hier"}) {
    EXPECT_NE(reg.find(name), nullptr) << name;
  }
  EXPECT_EQ(reg.size(), 16u);
  EXPECT_EQ(reg.find("no-such-method"), nullptr);
}

TEST(Registry, DuplicateNamesRejected) {
  EvaluatorRegistry reg;
  const auto fn = [](const expmk::scenario::Scenario&, const EvalOptions&,
                     expmk::exp::Workspace&,
                     expmk::exp::EvalResult& r) { r.mean = 1.0; };
  reg.add(Evaluator("x", "", {}, fn));
  EXPECT_THROW(reg.add(Evaluator("x", "", {}, fn)), std::invalid_argument);
}

TEST(Registry, CapabilityGatingReportsUnsupported) {
  const auto& reg = EvaluatorRegistry::builtin();
  const FailureModel m{0.1};

  // Enumeration limit: 30 tasks > kMaxExactTasks.
  const auto big = expmk::gen::erdos_dag(30, 0.2, 1);
  const auto r1 = reg.find("exact")->evaluate(uniform_scenario(big, m));
  EXPECT_FALSE(r1.supported);
  EXPECT_TRUE(std::isnan(r1.mean));
  EXPECT_FALSE(r1.note.empty());

  // Retry model: Dodin is two-state only.
  const auto g = expmk::test::diamond();
  const auto r2 = reg.find("dodin")->evaluate(
      uniform_scenario(g, m, RetryModel::Geometric));
  EXPECT_FALSE(r2.supported);

  // Method-specific failure: the SP evaluator on a non-SP graph must
  // report unsupported (with a note), not crash the sweep.
  const auto r3 =
      reg.find("sp")->evaluate(uniform_scenario(expmk::test::n_graph(), m));
  EXPECT_FALSE(r3.supported);
  EXPECT_NE(r3.note.find("series-parallel"), std::string::npos);
}

TEST(Registry, SpEvaluatorIsExactOnSpGraphs) {
  const auto g = expmk::gen::random_series_parallel(6, 11);
  const auto sc = uniform_scenario(g, 0.01);
  const auto r = EvaluatorRegistry::builtin().find("sp")->evaluate(sc);
  ASSERT_TRUE(r.supported);
  expmk::exp::Workspace ws;
  EXPECT_NEAR(r.mean, exact_two_state(sc, ws), 1e-9);
}

// The cross-method consistency contract: on every small generator DAG,
// each registered two-state evaluator matches core::exact_two_state within
// the tolerance documented in its Capabilities (estimates), or brackets it
// (bounds). Stochastic methods get 5 standard errors on top.
TEST(Consistency, EveryEvaluatorWithinDocumentedToleranceOfExact) {
  std::vector<std::pair<std::string, expmk::graph::Dag>> dags;
  dags.emplace_back("diamond", expmk::test::diamond(0.4, 0.3, 0.5, 0.2));
  dags.emplace_back("n_graph", expmk::test::n_graph(0.2, 0.3, 0.25, 0.15));
  dags.emplace_back("chain6", expmk::gen::chain_dag(6, 7));
  dags.emplace_back("forkjoin", expmk::gen::fork_join_dag(5, 11));
  dags.emplace_back("sp6", expmk::gen::random_series_parallel(6, 3));
  dags.emplace_back("erdos10", expmk::gen::erdos_dag(10, 0.3, 5));
  dags.emplace_back("layered", expmk::gen::layered_random(3, 3, 0.4, 9));
  dags.emplace_back("wheatstone", expmk::gen::wheatstone_bridge());

  EvalOptions opt;
  opt.mc_trials = 40'000;
  opt.seed = 99;

  const auto& reg = EvaluatorRegistry::builtin();
  for (const auto& [label, g] : dags) {
    ASSERT_LE(g.task_count(), expmk::core::kMaxExactTasks) << label;
    const auto sc = uniform_scenario(g, 0.01);
    expmk::exp::Workspace ws;
    const double exact = exact_two_state(sc, ws);

    for (const Evaluator& e : reg.evaluators()) {
      const auto& caps = e.capabilities();
      if (!caps.two_state) continue;
      if (g.task_count() > caps.max_tasks) continue;
      const auto r = e.evaluate(sc, opt);
      const std::string where = label + " / " + std::string(e.name());
      if (!r.supported) {
        // The only legal in-capability bailouts are the SP evaluators on
        // graphs that are not (or do not collapse to) series-parallel.
        EXPECT_TRUE(e.name() == "sp" || e.name() == "sp.hier")
            << where << ": " << r.note;
        continue;
      }
      switch (caps.kind) {
        case EstimateKind::Estimate: {
          const double tol = caps.rel_tolerance * exact +
                             (caps.stochastic ? 5.0 * r.std_error : 0.0);
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

// The explicit zero-failure path (pfail == 0 -> lambda == 0), end-to-end:
// every supporting evaluator must yield exactly d(G), not just a value
// close to it — there is no randomness left in the model.
TEST(Consistency, ZeroPfailYieldsFailureFreeMakespanAcrossEvaluators) {
  const auto g = expmk::gen::cholesky_dag(3);
  const FailureModel model = calibrate(g, 0.0);
  ASSERT_TRUE(model.failure_free());
  const auto sc = uniform_scenario(g, model);
  const double d = expmk::graph::critical_path_length(g);

  EvalOptions opt;
  opt.mc_trials = 500;
  for (const char* name :
       {"exact", "fo", "so", "dodin", "sp", "bounds.lower", "mc", "cmc"}) {
    const auto* e = EvaluatorRegistry::builtin().find(name);
    ASSERT_NE(e, nullptr) << name;
    const auto r = e->evaluate(sc, opt);
    if (!r.supported) continue;  // sp: cholesky is not series-parallel
    EXPECT_NEAR(r.mean, d, 1e-12) << name;
    EXPECT_DOUBLE_EQ(r.std_error, 0.0) << name;
  }
  // The level-decomposition bound stays a (possibly loose) upper bound
  // even deterministically — it must still sit at or above d(G).
  const auto upper =
      EvaluatorRegistry::builtin().find("bounds.upper")->evaluate(sc, opt);
  ASSERT_TRUE(upper.supported);
  EXPECT_GE(upper.mean, d - 1e-12);
}

TEST(Sweep, UnknownNamesAndBadConfigsFailLoudly) {
  const SweepRunner runner;
  SweepGrid grid;
  grid.generators = {"lu"};
  grid.sizes = {3};
  grid.pfails = {0.01};
  grid.methods = {"fo"};
  grid.reference = "";

  SweepGrid bad = grid;
  bad.methods = {"no-such-method"};
  EXPECT_THROW((void)runner.run(bad), std::invalid_argument);
  bad = grid;
  bad.generators = {"no-such-generator"};
  EXPECT_THROW((void)runner.run(bad), std::invalid_argument);
  bad = grid;
  bad.options.mc_trials = 0;
  EXPECT_THROW((void)runner.run(bad), std::invalid_argument);
  bad = grid;
  bad.pfails = {};
  EXPECT_THROW((void)runner.run(bad), std::invalid_argument);
  // Out-of-domain grid values must fail upfront too, not mid-sweep from
  // inside a pool worker after cells have burned compute.
  bad = grid;
  bad.pfails = {0.001, 1.5};
  EXPECT_THROW((void)runner.run(bad), std::invalid_argument);
  bad = grid;
  bad.pfails = {std::nan("")};
  EXPECT_THROW((void)runner.run(bad), std::invalid_argument);
  bad = grid;
  bad.sizes = {0};
  EXPECT_THROW((void)runner.run(bad), std::invalid_argument);
}

TEST(Sweep, RelativeErrorsAgainstDesignatedReference) {
  SweepGrid grid;
  grid.generators = {"cholesky"};
  grid.sizes = {3};
  grid.pfails = {0.01};
  grid.methods = {"fo", "bounds.lower"};
  grid.reference = "exact";

  const auto result = SweepRunner().run(grid);
  // Reference prepended: exact, fo, bounds.lower.
  ASSERT_EQ(result.cells.size(), 3u);
  const auto& ref = result.cells[0];
  EXPECT_EQ(ref.method, "exact");
  ASSERT_TRUE(ref.result.supported);
  EXPECT_DOUBLE_EQ(ref.relative_error, 0.0);

  const auto g = expmk::gen::cholesky_dag(3);
  expmk::exp::Workspace ws;
  const double exact = exact_two_state(uniform_scenario(g, 0.01), ws);
  EXPECT_NEAR(ref.result.mean, exact, 1e-12);
  for (std::size_t i = 1; i < result.cells.size(); ++i) {
    const auto& cell = result.cells[i];
    ASSERT_TRUE(cell.result.supported) << cell.method;
    EXPECT_DOUBLE_EQ(cell.reference_mean, ref.result.mean) << cell.method;
    EXPECT_NEAR(cell.relative_error,
                (cell.result.mean - exact) / exact, 1e-12)
        << cell.method;
  }
}

// The sweep-layer determinism contract: same grid -> byte-identical JSON
// artifact for ANY scenario-level thread count (and any evaluator-internal
// thread count — the MC engine's own contract), because per-cell seeds
// derive from grid coordinates and cells are stored by index.
TEST(Sweep, JsonArtifactBitIdenticalAcrossThreadCounts) {
  SweepGrid grid;
  grid.generators = {"lu", "sp"};
  grid.sizes = {4};
  grid.pfails = {0.001, 0.01};
  grid.methods = {"fo", "sculli", "bounds.lower", "bounds.upper", "sp",
                  "mc", "cmc"};
  grid.reference = "fo";
  grid.options.mc_trials = 2'000;
  grid.options.threads = 1;

  const SweepRunner runner;
  const SweepResult a = runner.run(grid, 1);
  const SweepResult b = runner.run(grid, 2);
  const SweepResult c = runner.run(grid, 7);
  const std::string json = a.json();
  EXPECT_EQ(json, b.json());
  EXPECT_EQ(json, c.json());

  // Evaluator-internal threads must not perturb the artifact either.
  SweepGrid wide = grid;
  wide.options.threads = 7;
  EXPECT_EQ(json, runner.run(wide, 2).json());

  // 2 generators x 1 size x 2 pfails x 7 methods (the reference "fo" is
  // already listed, so it is not prepended a second time).
  EXPECT_EQ(a.cells.size(), 2u * 2u * 7u);
  // The artifact embeds the determinism-relevant metadata.
  EXPECT_NE(json.find("\"schema\": \"expmk-sweep-v3\""), std::string::npos);
  EXPECT_NE(json.find("\"reference\": \"fo\""), std::string::npos);
  // v3: every cell carries the certified truncation envelope.
  EXPECT_NE(json.find("\"mean_lo\""), std::string::npos);
  EXPECT_NE(json.find("\"mean_hi\""), std::string::npos);
}

TEST(Sweep, CsvHasOneRowPerCellPlusHeader) {
  SweepGrid grid;
  grid.generators = {"chain"};
  grid.sizes = {4};
  grid.pfails = {0.01};
  grid.methods = {"fo", "so"};
  grid.reference = "";

  const auto result = SweepRunner().run(grid);
  const std::string csv = result.csv();
  std::size_t lines = 0;
  for (const char ch : csv) lines += ch == '\n';
  EXPECT_EQ(lines, result.cells.size() + 1);
  EXPECT_EQ(csv.rfind("generator,size,tasks,edges,pfail,lambda,method", 0),
            0u);
}

// The expmk-sweep-v3 artifact is a versioned contract: a small fully
// deterministic grid (analytic methods only — no trial-count coupling,
// with the atom caps forced low so the certified mean_lo/mean_hi fields
// are exercised non-degenerately) is pinned BYTE-identical to a
// checked-in golden file, for several sweep thread counts. Regenerate
// after an intentional schema or estimator change with
//   EXPMK_REGEN_GOLDEN=1 ./expmk_tests --gtest_filter='*GoldenFile*'
// (The pin is exact for one toolchain: the cell means embed libm's exp()
// bits, so a libm change legitimately regenerates too.)
TEST(Sweep, V3ArtifactByteStableAgainstGoldenFileAcrossThreadCounts) {
  SweepGrid grid;
  grid.generators = {"chain", "sp"};
  grid.sizes = {6};
  grid.pfails = {0.01, 0.2};
  grid.methods = {"fo", "so", "sp", "dodin", "bounds.lower", "bounds.upper"};
  grid.reference = "exact";
  grid.options.dodin_atoms = 4;
  grid.options.sp_max_atoms = 5;

  const SweepRunner runner;
  const std::string json = runner.run(grid, 1).json();
  EXPECT_EQ(json, runner.run(grid, 2).json());
  EXPECT_EQ(json, runner.run(grid, 5).json());
  // The forced caps actually fired somewhere (non-degenerate envelope).
  EXPECT_NE(json.find("atom-cap truncation"), std::string::npos);

  const std::string path =
      std::string(EXPMK_TEST_GOLDEN_DIR) + "/sweep_v3.json";
  if (std::getenv("EXPMK_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(path);
    ASSERT_TRUE(out.good()) << path;
    out << json << "\n";
    GTEST_SKIP() << "regenerated " << path;
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "missing golden file " << path;
  std::stringstream buffer;
  buffer << in.rdbuf();
  EXPECT_EQ(json + "\n", buffer.str())
      << "expmk-sweep-v3 artifact drifted from " << path;
}

TEST(Sweep, SameGraphInstanceAcrossPfailValues) {
  // The paper's protocol: one DAG instance per (generator, size), swept
  // across every pfail — pinned here via the random families, whose
  // structure would change if the seed depended on the pfail index.
  SweepGrid grid;
  grid.generators = {"erdos"};
  grid.sizes = {12};
  grid.pfails = {0.001, 0.01, 0.1};
  grid.methods = {"fo"};
  grid.reference = "";

  const auto result = SweepRunner().run(grid);
  ASSERT_EQ(result.cells.size(), 3u);
  for (const auto& cell : result.cells) {
    EXPECT_EQ(cell.tasks, result.cells[0].tasks);
    EXPECT_EQ(cell.edges, result.cells[0].edges);
  }
}

}  // namespace
