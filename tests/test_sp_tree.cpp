// tests/test_sp_tree.cpp
//
// The hierarchical-evaluation contract (graph/sp_tree.hpp + exp/hier.*):
//
//  * sp_collapse structure: series-parallel graphs collapse to a single
//    quotient node, the minimal non-SP shapes stay irreducible, and the
//    module forest partitions the original task set.
//  * Quotient == flat oracle: on SP DAGs the hierarchical evaluators
//    reproduce the flat exact/sp answers; on general DAGs sp.hier bails
//    honestly and dodin.hier keeps its documented tolerance.
//  * Truncation envelope: a capped hierarchical build still brackets the
//    exact mean with its certified [lo, hi].
//  * Memoization: structurally identical modules are built once; a
//    repeat evaluation is served entirely from the scenario's own law
//    store; a patch clone finds its parent's laws by content, and every
//    law dies with the last scenario holding it.
//  * Balanced trees: composites are binary, the module tree is
//    logarithmically deep, and a one-task patch rebuilds only its cone.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/failure_model.hpp"
#include "exp/evaluator.hpp"
#include "exp/hier.hpp"
#include "gen/cholesky.hpp"
#include "gen/random_dags.hpp"
#include "graph/sp_tree.hpp"
#include "scenario/scenario.hpp"
#include "test_helpers.hpp"

namespace {

using namespace expmk;

scenario::Scenario compile(const graph::Dag& g, double pfail) {
  return scenario::Scenario::calibrated(g, pfail,
                                        core::RetryModel::TwoState);
}

/// Fork-join of `k` identical chains of `len` tasks — every chain is the
/// same composite module, the memoization sweet spot.
graph::Dag fork_join(int k, int len, double w = 2.0) {
  graph::Dag g;
  const auto src = g.add_task("src", 1.0);
  const auto sink = g.add_task("sink", 1.0);
  for (int c = 0; c < k; ++c) {
    graph::TaskId prev = src;
    for (int i = 0; i < len; ++i) {
      const auto t = g.add_task(w);
      g.add_edge(prev, t);
      prev = t;
    }
    g.add_edge(prev, sink);
  }
  return g;
}

TEST(SpTree, DiamondCollapsesToOneModule) {
  const auto d = graph::sp_collapse(test::diamond());
  EXPECT_EQ(d.quotient.task_count(), 1u);
  EXPECT_EQ(d.collapsed_tasks, 3u);
  // Weight conservation: the quotient node carries the module's sum.
  EXPECT_DOUBLE_EQ(d.quotient.weight(0), 1.0 + 2.0 + 3.0 + 1.0);
}

TEST(SpTree, ChainCollapsesToOneModule) {
  graph::Dag g;
  graph::TaskId prev = g.add_task(1.0);
  for (int i = 1; i < 6; ++i) {
    const auto t = g.add_task(1.0 + i);
    g.add_edge(prev, t);
    prev = t;
  }
  const auto d = graph::sp_collapse(g);
  EXPECT_EQ(d.quotient.task_count(), 1u);
  EXPECT_EQ(d.collapsed_tasks, 5u);
}

TEST(SpTree, NGraphIsIrreducible) {
  // A->C, A->D, B->D: no series pair, no parallel twins — the minimal
  // shape where hierarchical evaluation must not pretend to collapse.
  const auto d = graph::sp_collapse(test::n_graph());
  EXPECT_EQ(d.quotient.task_count(), 4u);
  EXPECT_EQ(d.collapsed_tasks, 0u);
}

TEST(SpTree, WheatstoneBridgeCoreStaysIrreducible) {
  // s -> {a, b}; a -> m; a -> ta; b -> tb; m -> tb; {ta, tb} -> t.
  // The crossing arc a->m->tb interferes with every contraction below
  // the top level, so only outer series/parallel steps may fire; the
  // bridge core must survive in the quotient.
  graph::Dag g;
  const auto s = g.add_task("s", 1.0);
  const auto a = g.add_task("a", 2.0);
  const auto b = g.add_task("b", 3.0);
  const auto m = g.add_task("m", 1.5);
  const auto ta = g.add_task("ta", 2.5);
  const auto tb = g.add_task("tb", 1.0);
  const auto t = g.add_task("t", 0.5);
  g.add_edge(s, a);
  g.add_edge(s, b);
  g.add_edge(a, m);
  g.add_edge(a, ta);
  g.add_edge(b, tb);
  g.add_edge(m, tb);
  g.add_edge(ta, t);
  g.add_edge(tb, t);
  const auto d = graph::sp_collapse(g);
  EXPECT_GT(d.quotient.task_count(), 1u);
}

TEST(SpTree, ModuleTasksPartitionTheDag) {
  const auto g = gen::cholesky_dag(5);
  const auto d = graph::sp_collapse(g);
  std::vector<graph::TaskId> seen;
  for (const std::uint32_t m : d.quotient_module) {
    const auto tasks = graph::module_tasks(d, m);
    seen.insert(seen.end(), tasks.begin(), tasks.end());
  }
  std::sort(seen.begin(), seen.end());
  ASSERT_EQ(seen.size(), g.task_count());
  for (graph::TaskId i = 0; i < g.task_count(); ++i) EXPECT_EQ(seen[i], i);
  EXPECT_EQ(d.collapsed_tasks, g.task_count() - d.quotient.task_count());
}

// ---- quotient == flat oracles ---------------------------------------

TEST(SpTree, HierMatchesFlatExactOnSpDags) {
  const auto& reg = exp::EvaluatorRegistry::builtin();
  const exp::Evaluator* hier = reg.find("sp.hier");
  const exp::Evaluator* flat_sp = reg.find("sp");
  const exp::Evaluator* exact = reg.find("exact");
  ASSERT_NE(hier, nullptr);
  ASSERT_NE(flat_sp, nullptr);
  ASSERT_NE(exact, nullptr);

  std::vector<graph::Dag> sp_dags;
  sp_dags.push_back(test::diamond());
  sp_dags.push_back(test::diamond(0.5, 4.0, 4.0, 2.0));
  sp_dags.push_back(fork_join(3, 2));
  {
    graph::Dag chain;
    graph::TaskId prev = chain.add_task(1.0);
    for (int i = 1; i < 5; ++i) {
      const auto t = chain.add_task(0.5 * i + 1.0);
      chain.add_edge(prev, t);
      prev = t;
    }
    sp_dags.push_back(std::move(chain));
  }

  for (const double pfail : {0.01, 0.2}) {
    for (const auto& g : sp_dags) {
      const auto sc = compile(g, pfail);
      const exp::EvalOptions opt;
      const auto rh = hier->evaluate(sc, opt);
      const auto rf = flat_sp->evaluate(sc, opt);
      const auto re = exact->evaluate(sc, opt);
      ASSERT_TRUE(rh.supported) << rh.note;
      ASSERT_TRUE(rf.supported) << rf.note;
      ASSERT_TRUE(re.supported) << re.note;
      // Same exact computation through a different association order:
      // equal up to FP reassociation, far inside the documented 1e-9.
      EXPECT_TRUE(test::near(rh.mean, rf.mean, 1e-9))
          << rh.mean << " vs sp " << rf.mean;
      EXPECT_TRUE(test::near(rh.mean, re.mean, 1e-9))
          << rh.mean << " vs exact " << re.mean;
    }
  }
}

TEST(SpTree, HierBailsHonestlyOnIrreducibleQuotient) {
  const auto sc = compile(test::n_graph(), 0.05);
  const auto r =
      exp::EvaluatorRegistry::builtin().find("sp.hier")->evaluate(sc, {});
  EXPECT_FALSE(r.supported);
  EXPECT_NE(r.note.find("series-parallel"), std::string::npos) << r.note;
}

TEST(SpTree, DodinHierKeepsToleranceOnGeneralDags) {
  const auto& reg = exp::EvaluatorRegistry::builtin();
  for (const std::uint64_t seed : {11u, 42u}) {
    const auto g = gen::layered_random(4, 3, 0.5, seed);
    const auto sc = compile(g, 0.05);
    const auto re = reg.find("exact")->evaluate(sc, {});
    const auto rd = reg.find("dodin.hier")->evaluate(sc, {});
    ASSERT_TRUE(re.supported) << re.note;
    ASSERT_TRUE(rd.supported) << rd.note;
    // dodin.hier inherits Dodin's accuracy on the quotient. The 5%
    // registry contract is pinned on the sweep's consistency fixtures
    // (test_sweep.cpp); dense random layered DAGs push the duplication
    // bias a little past it, so this property check gates at 10%.
    EXPECT_TRUE(test::near(rd.mean, re.mean, 0.10))
        << rd.mean << " vs exact " << re.mean;
  }
}

TEST(SpTree, McHierAgreesWithExactWithinSigma) {
  const auto sc = compile(test::diamond(), 0.1);
  const auto re =
      exp::EvaluatorRegistry::builtin().find("exact")->evaluate(sc, {});
  exp::Workspace ws;
  const auto r = exp::hier::evaluate_mc_hier(sc, 256, ws, 200'000, 7);
  ASSERT_TRUE(re.supported);
  EXPECT_GT(r.std_error, 0.0);
  EXPECT_LT(std::fabs(r.mean - re.mean), 5.0 * r.std_error);
  // Bit-identity across thread counts (same chunk-order fold).
  const auto r2 = exp::hier::evaluate_mc_hier(sc, 256, ws, 200'000, 7, 2);
  const auto r7 = exp::hier::evaluate_mc_hier(sc, 256, ws, 200'000, 7, 7);
  EXPECT_EQ(r.mean, r2.mean);
  EXPECT_EQ(r.mean, r7.mean);
  EXPECT_EQ(r.std_error, r7.std_error);
}

TEST(SpTree, CappedBuildBracketsTheExactMean) {
  // Long chain at a high rate: the exact convolution support grows
  // multiplicatively, so a small cap must fire — and the certified
  // envelope must still contain the uncapped answer.
  graph::Dag g;
  graph::TaskId prev = g.add_task(1.0);
  for (int i = 1; i < 12; ++i) {
    const auto t = g.add_task(1.0 + 0.3 * i);
    g.add_edge(prev, t);
    prev = t;
  }
  const auto sc = compile(g, 0.3);
  exp::Workspace ws;
  const auto exactr = exp::hier::evaluate_sp_hier(sc, 0, ws);
  ASSERT_TRUE(exactr.is_series_parallel);
  const auto capped = exp::hier::evaluate_sp_hier(sc, 8, ws);
  ASSERT_TRUE(capped.is_series_parallel);
  EXPECT_GT(capped.truncation.events, 0u);
  EXPECT_LE(capped.mean - capped.truncation.down, exactr.mean + 1e-12);
  EXPECT_GE(capped.mean + capped.truncation.up, exactr.mean - 1e-12);
}

// ---- memoization ----------------------------------------------------

TEST(SpTree, IdenticalModulesAreBuiltOnce) {
  exp::hier::memo_clear();
  auto owner = std::make_unique<scenario::Scenario>(
      compile(fork_join(8, 4), 0.05));
  const scenario::Scenario& sc = *owner;

  // The memo's promise: a cold build misses once per DISTINCT composite
  // in the decomposition — keyed here independently of exp::hier, by
  // (weight, success probability) for leaves and (kind, child keys) for
  // composites — and every repeat of one is a hit or lies under a hit.
  const graph::SpDecomposition& d = sc.sp_decomposition();
  std::vector<std::size_t> key(d.modules.size());
  std::map<std::pair<double, double>, std::size_t> leaf_keys;
  std::map<std::vector<std::size_t>, std::size_t> composite_keys;
  for (std::size_t m = 0; m < d.modules.size(); ++m) {
    const auto& mod = d.modules[m];
    if (mod.kind == graph::SpDecomposition::Kind::Leaf) {
      const std::uint32_t pos = sc.csr().position()[mod.task];
      key[m] = leaf_keys
                   .emplace(std::pair{sc.weights_csr()[pos],
                                      sc.p_success_csr()[pos]},
                            leaf_keys.size())
                   .first->second;
      continue;
    }
    std::vector<std::size_t> sig{static_cast<std::size_t>(mod.kind)};
    for (std::uint32_t c = 0; c < mod.child_count; ++c) {
      sig.push_back(key[d.children[mod.first_child + c]]);
    }
    key[m] = composite_keys.emplace(sig, composite_keys.size()).first->second;
  }
  // 8 identical 4-task chains, each a 2-level balanced Series tree, under
  // a 3-level balanced Parallel tree, in the src -> * -> sink spine.
  EXPECT_EQ(composite_keys.size(), 7u);

  // Both tables stay checked out of `ws` until it dies.
  exp::Workspace ws;
  const auto first = exp::hier::build_module_distributions(sc, 0, ws);
  EXPECT_EQ(first.stats.memo_misses, composite_keys.size());

  // A repeat build is all hits: each quotient root is served whole.
  const auto again = exp::hier::build_module_distributions(sc, 0, ws);
  EXPECT_EQ(again.stats.memo_misses, 0u);
  EXPECT_EQ(again.stats.memo_hits, d.quotient_module.size());

  const auto ms = exp::hier::memo_stats();
  EXPECT_EQ(ms.misses, first.stats.memo_misses);
  EXPECT_EQ(ms.hits, first.stats.memo_hits + again.stats.memo_hits);
  EXPECT_EQ(ms.entries, composite_keys.size());

  // Served-from-cache must be byte-for-byte the same law.
  ASSERT_EQ(first.laws.size(), again.laws.size());
  for (std::size_t i = 0; i < first.laws.size(); ++i) {
    const auto a = first.laws.law(i);
    const auto b = again.laws.law(i);
    ASSERT_EQ(a.size(), b.size()) << i;
    for (std::size_t k = 0; k < a.size(); ++k) {
      EXPECT_EQ(a[k].value, b[k].value) << i << ":" << k;
      EXPECT_EQ(a[k].prob, b[k].prob) << i << ":" << k;
    }
  }
  // Clearing drops the index and the counters, not the scenario's laws:
  // they live exactly as long as the scenario.
  exp::hier::memo_clear();
  EXPECT_EQ(exp::hier::memo_stats().entries, composite_keys.size());
  EXPECT_EQ(exp::hier::memo_stats().hits, 0u);
  owner.reset();
  EXPECT_EQ(exp::hier::memo_stats().entries, 0u);
  EXPECT_EQ(exp::hier::memo_stats().bytes, 0u);
}

TEST(SpTree, MemoStatsCountLiveLawBytes) {
  // A 3-task chain of weights 1, 3, 9 folds as t0 + (t1 + t2): two
  // composites, the inner one with the 4 distinct sums of {3|6} + {9|18}
  // and the root with all 8 of {1|2} + {3|6} + {9|18}.
  graph::Dag g;
  graph::TaskId prev = g.add_task(1.0);
  for (const double w : {3.0, 9.0}) {
    const graph::TaskId t = g.add_task(w);
    g.add_edge(prev, t);
    prev = t;
  }
  {
    const auto sc = compile(g, 0.1);
    exp::Workspace ws;
    const auto r = exp::hier::evaluate_sp_hier(sc, 0, ws);
    ASSERT_TRUE(r.is_series_parallel);
    EXPECT_EQ(r.stats.memo_misses, 2u);
    const exp::hier::MemoStats ms = exp::hier::memo_stats();
    EXPECT_EQ(ms.entries, 2u);
    EXPECT_EQ(ms.bytes, (4 + 8) * sizeof(prob::Atom));
  }
  EXPECT_EQ(exp::hier::memo_stats().entries, 0u);
  EXPECT_EQ(exp::hier::memo_stats().bytes, 0u);
}

// ---- balanced module trees -------------------------------------------

/// Composite levels above the deepest leaf of `m` (explicit stack: a
/// left-deep tree is as deep as the chain it came from).
std::size_t module_depth(const graph::SpDecomposition& d, std::uint32_t m) {
  std::size_t deepest = 0;
  std::vector<std::pair<std::uint32_t, std::size_t>> stack{{m, 0}};
  while (!stack.empty()) {
    const auto [id, level] = stack.back();
    stack.pop_back();
    deepest = std::max(deepest, level);
    const auto& mod = d.modules[id];
    for (std::uint32_t c = 0; c < mod.child_count; ++c) {
      stack.emplace_back(d.children[mod.first_child + c], level + 1);
    }
  }
  return deepest;
}

TEST(SpTree, CompositesAreBinary) {
  const auto d = graph::sp_collapse(gen::tiled_fork_join(3, 5, 3, 1));
  for (const auto& mod : d.modules) {
    EXPECT_EQ(mod.child_count,
              mod.kind == graph::SpDecomposition::Kind::Leaf ? 0u : 2u);
  }
}

TEST(SpTree, BalancedTreeDepthIsLogarithmic) {
  // 50 stages of (src, 40 parallel 10-task chains, sink): a 150-child
  // series spine, 40-child parallel groups and 10-child chains, so
  // ceil(log2) per level gives 8 + 6 + 4 = 18. A left-deep spine is 110.
  const auto d = graph::sp_collapse(gen::tiled_fork_join(50, 40, 10, 7));
  ASSERT_EQ(d.quotient_module.size(), 1u);
  EXPECT_LE(module_depth(d, d.quotient_module[0]), 20u);
}

TEST(SpTree, OneTaskPatchRebuildsLogCone) {
  // A one-task rate patch on a warm memo rebuilds only the modules above
  // the patched leaf: 4 chain + 2 parallel + 8 spine levels here, at
  // every stage. A left-deep spine re-folds every enclosing stage.
  constexpr int kStages = 50, kWidth = 4, kChain = 10;
  const graph::Dag g = gen::tiled_fork_join(kStages, kWidth, kChain, 7);
  const double lambda = core::calibrate(g, 0.01).lambda;
  const auto base =
      scenario::Scenario::compile(g, scenario::FailureSpec::uniform(lambda));
  exp::hier::memo_clear();
  exp::Workspace ws;
  ASSERT_TRUE(exp::hier::evaluate_sp_hier(base, 256, ws).is_series_parallel);
  for (const int stage : {0, 25, 49}) {
    const std::vector<graph::TaskId> task{
        static_cast<graph::TaskId>(stage * (kWidth * kChain + 2) + 1)};
    const std::vector<double> rate{2.0 * lambda};
    const auto r = exp::hier::evaluate_sp_hier(base.patch(task, rate), 256, ws);
    ASSERT_TRUE(r.is_series_parallel);
    EXPECT_LE(r.stats.memo_misses, 24u) << "stage " << stage;
  }
  exp::hier::memo_clear();
}

std::uint64_t bits(double x) {
  std::uint64_t u;
  std::memcpy(&u, &x, sizeof u);
  return u;
}

TEST(SpTree, MemoKeySeparatesRatesWeightsAndBudget) {
  exp::hier::memo_clear();
  const auto g = fork_join(2, 3);
  exp::Workspace ws;
  // `sa` stays alive throughout, so its laws stay findable by content: a
  // key that left out the rate, a weight or the budget would serve them
  // to the scenarios below.
  const auto sa = compile(g, 0.05);
  const auto a = exp::hier::evaluate_sp_hier(sa, 0, ws);
  ASSERT_TRUE(a.is_series_parallel);
  ASSERT_GT(exp::hier::memo_stats().entries, 0u);
  const auto b = exp::hier::evaluate_sp_hier(compile(g, 0.20), 0, ws);
  ASSERT_TRUE(b.is_series_parallel);
  EXPECT_NE(a.mean, b.mean);
  // Weight: a quarter of the rate on a task four times heavier keeps its
  // success probability bit-for-bit, so only the weight tells the laws
  // apart.
  const double lambda = core::calibrate(g, 0.05).lambda;
  graph::Dag g2 = fork_join(2, 3);
  g2.set_weight(2, 8.0);
  std::vector<double> rates(g2.task_count(), lambda);
  rates[2] = lambda / 4;
  const auto c = exp::hier::evaluate_sp_hier(
      scenario::Scenario::compile(g2, scenario::FailureSpec::per_task(rates)),
      0, ws);
  ASSERT_TRUE(c.is_series_parallel);
  EXPECT_NE(a.mean, c.mean);
  // Budget: `sa` also holds its laws at 2 atoms, so an exact build of a
  // fresh compile must not be served those truncated laws.
  const auto a2 = exp::hier::evaluate_sp_hier(sa, 2, ws);
  ASSERT_TRUE(a2.is_series_parallel);
  ASSERT_GT(a2.truncation.up + a2.truncation.down, 0.0);
  const auto exact = exp::hier::evaluate_sp_hier(compile(g, 0.05), 0, ws);
  EXPECT_EQ(exact.stats.memo_misses, 0u);  // the exact laws, from `sa`
  EXPECT_EQ(bits(exact.mean), bits(a.mean));
  EXPECT_NE(exact.mean, a2.mean);
  exp::hier::memo_clear();
}

// ---- law lifetime ----------------------------------------------------

/// The hier answers of one scenario, as bit patterns.
struct HierBits {
  std::uint64_t sp_mean, sp_up, sp_down;
  std::uint64_t dodin_mean, dodin_up, dodin_down;
  std::uint64_t mc_mean, mc_se;

  bool operator==(const HierBits&) const = default;
};

HierBits hier_bits(const exp::hier::HierSpResult& sp,
                   const exp::hier::HierDodinBound& dodin,
                   const exp::hier::HierMcResult* mc = nullptr) {
  return {bits(sp.mean),
          bits(sp.truncation.up),
          bits(sp.truncation.down),
          bits(dodin.mean),
          bits(dodin.truncation.up),
          bits(dodin.truncation.down),
          mc != nullptr ? bits(mc->mean) : 0,
          mc != nullptr ? bits(mc->std_error) : 0};
}

constexpr std::size_t kLifetimeAtoms = 64;

/// 12 stages of 4 parallel 6-task chains with distinct weights.
graph::Dag lifetime_dag() { return gen::tiled_fork_join(12, 4, 6, 7); }

TEST(SpTree, PatchedClonesDoNotGrowTheStore) {
  // What-if traffic: every clone finds its parent's laws by content and
  // builds only its patched cone, and those laws die with the clone, so
  // the live law count returns to the base's after every query.
  const graph::Dag g = lifetime_dag();
  const double lambda = core::calibrate(g, 0.01).lambda;
  exp::hier::memo_clear();
  ASSERT_EQ(exp::hier::memo_stats().entries, 0u);
  auto base = std::make_unique<scenario::Scenario>(
      scenario::Scenario::compile(g, scenario::FailureSpec::uniform(lambda)));
  exp::Workspace ws;
  ASSERT_TRUE(exp::hier::evaluate_sp_hier(*base, kLifetimeAtoms, ws)
                  .is_series_parallel);
  (void)exp::hier::evaluate_dodin_hier(*base, kLifetimeAtoms, ws);
  const exp::hier::MemoStats after_base = exp::hier::memo_stats();
  ASSERT_GT(after_base.entries, 0u);

  for (int i = 0; i < 50; ++i) {
    const std::vector<graph::TaskId> task{
        static_cast<graph::TaskId>((37 * i + 5) % g.task_count())};
    const bool rate = i % 2 == 0;
    const double w = g.weight(task[0]);
    const std::vector<double> value{rate ? lambda * (1.5 + 0.05 * i)
                                         : w * (1.25 + 0.01 * i)};
    const scenario::Scenario clone =
        rate ? base->patch(task, value) : base->patch(task, {}, value);
    const auto sp = exp::hier::evaluate_sp_hier(clone, kLifetimeAtoms, ws);
    const auto dodin =
        exp::hier::evaluate_dodin_hier(clone, kLifetimeAtoms, ws);
    ASSERT_TRUE(sp.is_series_parallel);
    EXPECT_EQ(dodin.stats.memo_misses, 0u) << "clone " << i;

    graph::Dag g2 = g;
    scenario::FailureSpec spec = scenario::FailureSpec::uniform(lambda);
    if (rate) {
      std::vector<double> rates(g.task_count(), lambda);
      rates[task[0]] = value[0];
      spec = scenario::FailureSpec::per_task(std::move(rates));
    } else {
      g2.set_weight(task[0], value[0]);
    }
    const scenario::Scenario fresh =
        scenario::Scenario::compile(g2, std::move(spec));
    exp::Workspace fresh_ws;
    EXPECT_EQ(hier_bits(sp, dodin),
              hier_bits(exp::hier::evaluate_sp_hier(fresh, kLifetimeAtoms,
                                                    fresh_ws),
                        exp::hier::evaluate_dodin_hier(fresh, kLifetimeAtoms,
                                                       fresh_ws)))
        << "clone " << i;
  }
  EXPECT_EQ(exp::hier::memo_stats().entries, after_base.entries);
  EXPECT_EQ(exp::hier::memo_stats().bytes, after_base.bytes);
  base.reset();
  EXPECT_EQ(exp::hier::memo_stats().entries, 0u);
  EXPECT_EQ(exp::hier::memo_stats().bytes, 0u);
}

TEST(SpTree, CloneOutlivesItsParentUnderConcurrentEvaluation) {
  // Four threads evaluate one clone while a fifth destroys the clone's
  // parent: a law found in the parent's store either stays alive through
  // the clone's own store or is rebuilt, bit for bit, so every thread
  // reads the serial answer.
  const graph::Dag g = lifetime_dag();
  const double lambda = core::calibrate(g, 0.01).lambda;
  const std::vector<graph::TaskId> task{40};
  const std::vector<double> rate{3.0 * lambda};
  constexpr int kWorkers = 4;
  for (int round = 0; round < 4; ++round) {
    exp::hier::memo_clear();
    auto base = std::make_unique<scenario::Scenario>(
        scenario::Scenario::compile(g, scenario::FailureSpec::uniform(lambda)));
    exp::Workspace ws;
    ASSERT_TRUE(exp::hier::evaluate_sp_hier(*base, kLifetimeAtoms, ws)
                    .is_series_parallel);
    HierBits serial{};
    {
      const scenario::Scenario sibling = base->patch(task, rate);
      const auto mc =
          exp::hier::evaluate_mc_hier(sibling, kLifetimeAtoms, ws, 500, 11, 1);
      serial = hier_bits(
          exp::hier::evaluate_sp_hier(sibling, kLifetimeAtoms, ws),
          exp::hier::evaluate_dodin_hier(sibling, kLifetimeAtoms, ws), &mc);
    }
    const scenario::Scenario clone = base->patch(task, rate);
    std::atomic<int> ready{0};
    std::vector<HierBits> got(kWorkers);
    std::vector<std::thread> threads;
    for (int t = 0; t < kWorkers; ++t) {
      threads.emplace_back([&, t] {
        ready.fetch_add(1);
        while (ready.load() <= kWorkers) {
        }
        exp::Workspace tws;
        const auto sp = exp::hier::evaluate_sp_hier(clone, kLifetimeAtoms, tws);
        const auto dodin =
            exp::hier::evaluate_dodin_hier(clone, kLifetimeAtoms, tws);
        const auto mc =
            exp::hier::evaluate_mc_hier(clone, kLifetimeAtoms, tws, 500, 11, 1);
        got[t] = hier_bits(sp, dodin, &mc);
      });
    }
    threads.emplace_back([&] {
      ready.fetch_add(1);
      while (ready.load() <= kWorkers) {
      }
      base.reset();
    });
    for (std::thread& th : threads) th.join();
    for (int t = 0; t < kWorkers; ++t) {
      EXPECT_EQ(got[t], serial) << "round " << round << " thread " << t;
    }
  }
}

}  // namespace
