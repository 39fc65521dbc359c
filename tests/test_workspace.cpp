// Tests for exp::Workspace and the workspace-kernel refactor:
//
//  * lease/frame semantics: slot reuse across frames, monotonic growth,
//    release(), the per-thread local() pool;
//  * the ALLOCATION REGRESSION satellite: a counting global operator new
//    pins ZERO steady-state heap allocations for the analytic methods
//    (fo, so, bounds.lower/upper, sculli, corlca, clark, the exact
//    oracles, and — since the flat distribution engine — sp and dodin,
//    and the hierarchical sp.hier / dodin.hier path on a warm memo)
//    when evaluated on a warm workspace;
//  * the workspace bit-identity property: for all 16 evaluators x both
//    retry models x a spread of DAGs, an explicit cold or warm workspace
//    returns results bitwise identical to the registry's workspace-less
//    evaluate(sc, opts), which leases Workspace::local() — a warm arena
//    must never leak state between evaluations;
//  * the sweep pooling contract: one workspace per worker thread, not
//    one per cell;
//  * mc::sample_durations writes into a workspace lease of exactly
//    task_count() doubles without allocating, and rejects any other
//    span size.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/bounds.hpp"
#include "core/failure_model.hpp"
#include "exp/evaluator.hpp"
#include "exp/hier.hpp"
#include "exp/sweep.hpp"
#include "exp/workspace.hpp"
#include "gen/lu.hpp"
#include "gen/random_dags.hpp"
#include "graph/sp_tree.hpp"
#include "mc/conditional.hpp"
#include "mc/engine.hpp"
#include "mc/trial.hpp"
#include "prob/rng.hpp"
#include "reference_estimators.hpp"
#include "scenario/scenario.hpp"
#include "spgraph/dodin.hpp"
#include "spgraph/sp_reduce.hpp"
#include "test_helpers.hpp"

// ---------------------------------------------------------------------
// Counting global operator new. Replacing the global allocation functions
// in any TU of the test binary installs them binary-wide; the counter is
// always on (one relaxed atomic increment per allocation) and tests read
// deltas around the region of interest.

namespace {
std::atomic<std::uint64_t> g_alloc_count{0};
}  // namespace

void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* operator new(std::size_t size, std::align_val_t align) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  // aligned_alloc requires size to be a multiple of the alignment (some
  // platforms enforce it by returning NULL).
  const auto a = static_cast<std::size_t>(align);
  const std::size_t rounded = ((size ? size : 1) + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size, std::align_val_t align) {
  return operator new(size, align);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace {

using expmk::core::calibrate;
using expmk::core::FailureModel;
using expmk::core::RetryModel;
using expmk::exp::EvalOptions;
using expmk::exp::EvalResult;
using expmk::exp::Evaluator;
using expmk::exp::EvaluatorRegistry;
using expmk::exp::Workspace;
using expmk::graph::Dag;
using expmk::graph::TaskId;
using expmk::scenario::FailureSpec;
using expmk::scenario::Scenario;

// ----------------------------------------------------- lease mechanics

TEST(Workspace, FramesReuseSlotsAndGrowthIsMonotonic) {
  Workspace ws;
  const double* first_slot = nullptr;
  {
    const Workspace::Frame frame(ws);
    const auto a = ws.doubles(64);
    const auto b = ws.doubles(16);
    ASSERT_EQ(a.size(), 64u);
    ASSERT_EQ(b.size(), 16u);
    EXPECT_NE(a.data(), b.data());
    first_slot = a.data();
  }
  {
    // Same checkout sequence, smaller first request: the slot serves the
    // lease from its existing (never-shrunk) buffer.
    const Workspace::Frame frame(ws);
    const auto a = ws.doubles(32);
    EXPECT_EQ(a.data(), first_slot);
  }
  const std::size_t warm = ws.bytes_reserved();
  EXPECT_GE(warm, (64 + 16) * sizeof(double));
  {
    // A larger request may grow the slot, but capacity never shrinks.
    const Workspace::Frame frame(ws);
    (void)ws.doubles(128);
  }
  EXPECT_GE(ws.bytes_reserved(), warm);

  ws.release();
  EXPECT_EQ(ws.bytes_reserved(), 0u);
}

TEST(Workspace, TypedPoolsAreIndependent) {
  Workspace ws;
  const Workspace::Frame frame(ws);
  const auto d = ws.doubles(8);
  const auto u = ws.u32(8);
  const auto c = ws.u64(8);
  const auto m = ws.moments(8);
  const auto i = ws.ints(8);
  // All leases are live simultaneously and fully writable.
  d[7] = 1.0;
  u[7] = 2;
  c[7] = 3;
  m[7] = {4.0, 5.0};
  i[7] = 6;
  EXPECT_EQ(d[7] + m[7].mean, 5.0);
  EXPECT_EQ(u[7] + c[7] + static_cast<std::uint64_t>(i[7]), 11u);
}

// A growing lease resizes its own slot: the prefix survives, the other
// leases stay where they are, and no slot is checked out for the growth,
// so a repeated sequence re-leases the same two slots allocation-free.
TEST(Workspace, GrowInPlaceKeepsPrefixAndSlot) {
  Workspace ws;
  const auto run = [&] {
    const Workspace::Frame frame(ws);
    auto a = ws.doubles(500);
    const auto b = ws.doubles(8);
    for (std::size_t i = 0; i < a.size(); ++i) a[i] = static_cast<double>(i);
    for (std::size_t i = 0; i < b.size(); ++i) b[i] = -1.0;
    a = ws.grow(a, 1000);
    EXPECT_EQ(a.size(), 1000u);
    for (std::size_t i = 0; i < 500; ++i) {
      EXPECT_EQ(a[i], static_cast<double>(i)) << i;
    }
    for (std::size_t i = 0; i < b.size(); ++i) EXPECT_EQ(b[i], -1.0) << i;
    return std::pair{a.data(), b.data()};
  };
  const auto cold = run();
  {
    // The growth took no slot: in a later frame the first two leases are
    // the grown buffer and b's.
    const Workspace::Frame frame(ws);
    EXPECT_EQ(ws.doubles(1).data(), cold.first);
    EXPECT_EQ(ws.doubles(1).data(), cold.second);
  }
  // The outgrown 500-double buffer was not kept in a slot of its own.
  const std::size_t reserved = ws.bytes_reserved();
  EXPECT_LT(reserved, (1000 + 8 + 500) * sizeof(double));

  const std::uint64_t before = g_alloc_count.load();
  const auto warm = run();
  EXPECT_EQ(g_alloc_count.load() - before, 0u);
  EXPECT_EQ(warm, cold);
  EXPECT_EQ(ws.bytes_reserved(), reserved);

  {
    // Only live leases of this workspace grow.
    const Workspace::Frame frame(ws);
    std::vector<double> foreign(4);
    EXPECT_THROW((void)ws.grow(std::span<double>(foreign), 8),
                 std::invalid_argument);
  }
}

TEST(Workspace, LocalIsOnePoolPerThread) {
  Workspace& a = Workspace::local();
  EXPECT_EQ(&a, &Workspace::local());
  Workspace* other = nullptr;
  std::thread t([&] { other = &Workspace::local(); });
  t.join();
  EXPECT_NE(other, nullptr);
  EXPECT_NE(other, &a);
}

// ------------------------------------------------ allocation regression

/// Evaluates `method` `reps` times on a warm `ws` and returns the number
/// of heap allocations the steady-state loop performed.
std::uint64_t steady_state_allocs(const Evaluator& e, const Scenario& sc,
                                  const EvalOptions& opt, Workspace& ws,
                                  int reps = 8) {
  double guard = 0.0;
  // Warm-up: grows the arenas to this method's high-water mark.
  guard += e.evaluate(sc, opt, ws).mean;
  guard += e.evaluate(sc, opt, ws).mean;
  const std::uint64_t before = g_alloc_count.load();
  for (int r = 0; r < reps; ++r) guard += e.evaluate(sc, opt, ws).mean;
  const std::uint64_t after = g_alloc_count.load();
  EXPECT_FALSE(std::isnan(guard));
  return after - before;
}

// The tentpole contract: on a warm workspace the six analytic methods
// perform ZERO steady-state heap allocations — per call, per rep, at all.
TEST(AllocationRegression, AnalyticMethodsAreAllocationFreeWhenWarm) {
  const Dag g = expmk::gen::erdos_dag(60, 0.2, 42);
  const FailureModel model = calibrate(g, 0.01);
  const auto& reg = EvaluatorRegistry::builtin();
  EvalOptions opt;
  Workspace ws;

  for (const RetryModel retry :
       {RetryModel::TwoState, RetryModel::Geometric}) {
    const Scenario sc = Scenario::compile(g, FailureSpec(model), retry);
    for (const char* name :
         {"fo", "so", "bounds.lower", "bounds.upper", "sculli", "corlca",
          "clark"}) {
      const Evaluator* e = reg.find(name);
      ASSERT_NE(e, nullptr) << name;
      if (retry == RetryModel::Geometric &&
          !e->capabilities().geometric) {
        continue;  // bounds are two-state statements; gated under geometric
      }
      EXPECT_EQ(steady_state_allocs(*e, sc, opt, ws), 0u)
          << name << (retry == RetryModel::TwoState ? " / two_state"
                                                    : " / geometric");
    }
  }
}

// Heterogeneous per-task rates run the same kernels on different cached
// constants — the zero-allocation contract must hold there too.
TEST(AllocationRegression, HeterogeneousScenarioIsAllocationFreeToo) {
  const Dag g = expmk::gen::layered_random(8, 8, 0.3, 7);
  const double lambda = calibrate(g, 0.01).lambda;
  std::vector<double> rates(g.task_count());
  for (TaskId i = 0; i < g.task_count(); ++i) {
    rates[i] = lambda * (0.25 + static_cast<double>(i % 7) * 0.5);
  }
  const Scenario sc = Scenario::compile(g, FailureSpec::per_task(rates),
                                        RetryModel::TwoState);
  const auto& reg = EvaluatorRegistry::builtin();
  EvalOptions opt;
  Workspace ws;
  for (const char* name :
       {"fo", "so", "bounds.lower", "bounds.upper", "sculli", "corlca",
        "clark"}) {
    EXPECT_EQ(steady_state_allocs(*reg.find(name), sc, opt, ws), 0u) << name;
  }
}

// The exact oracle rides the same arenas (its 2^V enumeration used to
// allocate per call); pin it as well, on a small graph.
TEST(AllocationRegression, ExactOracleIsAllocationFreeWhenWarm) {
  const Dag g = expmk::gen::erdos_dag(10, 0.3, 5);
  const Scenario sc = Scenario::compile(
      g, FailureSpec(calibrate(g, 0.01)), RetryModel::TwoState);
  Workspace ws;
  EXPECT_EQ(steady_state_allocs(*EvaluatorRegistry::builtin().find("exact"),
                                sc, {}, ws, 3),
            0u);
}

// The flat distribution engine removed the PR-4 sp/dodin exemption: the
// network, its adjacency, every intermediate distribution and all kernel
// scratch lease from the workspace, so sp, dodin, exact and exact.geo are
// allocation-free at steady state too. (A fired atom-cap truncation
// allocates the EvalResult::note it reports by design, so the fixtures
// run untruncated — which is also each method's default here.)
TEST(AllocationRegression, FlatDistributionEngineIsAllocationFreeWhenWarm) {
  const auto& reg = EvaluatorRegistry::builtin();
  Workspace ws;
  EvalOptions opt;
  opt.sp_max_atoms = 0;
  opt.dodin_atoms = 0;

  std::vector<std::pair<std::string, Dag>> dags;
  dags.emplace_back("sp12", expmk::gen::random_series_parallel(12, 3));
  dags.emplace_back("n_graph", expmk::test::n_graph(0.2, 0.3, 0.25, 0.15));
  dags.emplace_back("wheatstone", expmk::gen::wheatstone_bridge());

  for (const auto& [label, g] : dags) {
    for (const bool het : {false, true}) {
      std::vector<double> rates(g.task_count());
      const double lambda = calibrate(g, 0.02).lambda;
      for (TaskId i = 0; i < g.task_count(); ++i) {
        rates[i] = lambda * (0.25 + static_cast<double>(i % 5) * 0.4);
      }
      const Scenario sc =
          het ? Scenario::compile(g, FailureSpec::per_task(rates),
                                  RetryModel::TwoState)
              : Scenario::compile(g, FailureSpec(calibrate(g, 0.02)),
                                  RetryModel::TwoState);
      for (const char* name : {"sp", "dodin", "exact"}) {
        // sp's unsupported verdict on a non-SP graph heap-allocates the
        // note it reports, so its zero-alloc pin runs on the SP fixture.
        if (std::string(name) == "sp" && label != "sp12") continue;
        const Evaluator* e = reg.find(name);
        ASSERT_NE(e, nullptr);
        EXPECT_EQ(steady_state_allocs(*e, sc, opt, ws, 4), 0u)
            << label << " / " << name << (het ? " / het" : "");
      }
      const Scenario geo =
          het ? Scenario::compile(g, FailureSpec::per_task(rates),
                                  RetryModel::Geometric)
              : Scenario::compile(g, FailureSpec(calibrate(g, 0.02)),
                                  RetryModel::Geometric);
      EXPECT_EQ(steady_state_allocs(*reg.find("exact.geo"), geo, opt, ws, 3),
                0u)
          << label << " / exact.geo" << (het ? " / het" : "");
    }
  }
}

// The laws entries (sp.hier / dodin.hier's quotient reduction) share the
// flat engine's arenas: with the law table already built — here the
// SP-tree module laws of an LU quotient, in a workspace of their own — a
// warm reduction allocates nothing.
TEST(AllocationRegression, LawsEntriesAreAllocationFreeWhenWarm) {
  const Dag g = expmk::gen::lu_dag(5);
  const Scenario sc = Scenario::calibrated(g, 0.01, RetryModel::TwoState);
  Workspace laws_ws;
  const auto md =
      expmk::exp::hier::build_module_distributions(sc, 32, laws_ws);
  const Dag& quotient = sc.sp_decomposition().quotient;
  ASSERT_GT(quotient.task_count(), 1u);
  ASSERT_EQ(md.laws.size(), quotient.task_count());
  Workspace ws;
  const auto run = [&] {
    const auto sp = expmk::sp::evaluate_sp_laws(quotient, md.laws, 32, ws);
    const auto dodin =
        expmk::sp::dodin_laws(quotient, md.laws, {.max_atoms = 32}, ws);
    return sp.stats.series + dodin.duplications;
  };
  const std::size_t cold = run();
  (void)run();
  const std::uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
  const std::size_t warm = run();
  const std::uint64_t allocs =
      g_alloc_count.load(std::memory_order_relaxed) - before;
  EXPECT_EQ(allocs, 0u);
  EXPECT_EQ(warm, cold);
  EXPECT_GT(cold, 0u);
}

// The whole hierarchical path: with every composite module already in the
// memo and a warm workspace, building the module law table (memo hits
// copied into the arena, leaves written in place) and reducing the
// quotient allocates nothing. The direct entries are called because the
// registry path allocates the note it reports by design.
TEST(AllocationRegression, HierWarmMemoIsAllocationFreeWhenWarm) {
  const Scenario sc =
      Scenario::calibrated(expmk::gen::lu_dag(5), 0.01, RetryModel::TwoState);
  Workspace ws;
  struct Outcome {
    std::uint64_t hits, misses;
    double dodin_mean;
  };
  const auto run = [&] {
    const auto sp = expmk::exp::hier::evaluate_sp_hier(sc, 32, ws);
    const auto dodin = expmk::exp::hier::evaluate_dodin_hier(sc, 32, ws);
    return Outcome{sp.stats.memo_hits + dodin.stats.memo_hits,
                   sp.stats.memo_misses + dodin.stats.memo_misses,
                   dodin.mean};
  };
  const Outcome cold = run();
  (void)run();
  const std::uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
  const Outcome warm = run();
  const std::uint64_t allocs =
      g_alloc_count.load(std::memory_order_relaxed) - before;
  EXPECT_EQ(allocs, 0u);
  EXPECT_EQ(warm.misses, 0u);
  EXPECT_GT(warm.hits, 0u);
  EXPECT_EQ(warm.dodin_mean, cold.dodin_mean);
}

// Every kernel scratch buffer comes from the workspace the caller passes:
// once that workspace is warm, the same calls on a thread that has never
// run a kernel allocate nothing (no per-thread kernel arenas to fill).
// The direct entries are called because the registry path allocates the
// truncation note it reports by design.
TEST(Workspace, WarmWorkspaceNeedsNoThreadScratch) {
  const Scenario sp_sc = Scenario::calibrated(
      expmk::gen::random_series_parallel(40, 5), 0.05, RetryModel::TwoState);
  const Scenario lu =
      Scenario::calibrated(expmk::gen::lu_dag(6), 0.01, RetryModel::TwoState);
  Workspace ws;
  struct Outcome {
    double sum;  // sp + dodin + bounds.upper
    std::uint64_t hier_hits, hier_misses;
  };
  const auto run = [&] {
    const auto hier = expmk::exp::hier::evaluate_sp_hier(lu, 256, ws);
    return Outcome{
        expmk::sp::evaluate_sp_flat(sp_sc, 256, ws).mean +
            expmk::sp::dodin_two_state_flat(lu, {.max_atoms = 256}, ws).mean +
            expmk::core::makespan_bounds(lu, ws).level_upper,
        hier.stats.memo_hits, hier.stats.memo_misses};
  };
  (void)run();  // fills the hier memo
  const Outcome warm = run();
  std::uint64_t allocs = 0;
  Outcome fresh{};
  std::thread t([&] {
    const std::uint64_t before = g_alloc_count.load();
    fresh = run();
    allocs = g_alloc_count.load() - before;
  });
  t.join();
  EXPECT_EQ(allocs, 0u);
  EXPECT_FALSE(std::isnan(warm.sum));
  EXPECT_EQ(fresh.sum, warm.sum);
  EXPECT_EQ(fresh.hier_misses, 0u);
  EXPECT_EQ(fresh.hier_hits, warm.hier_hits);
  EXPECT_GT(warm.hier_hits, 0u);
}

// The pins above run small untruncated networks, which never outgrow the
// engine's initial per-node / per-arc vectors nor compact its atom arena.
// Dodin on LU k=6 at 64 atoms does both (306 duplications, one node and
// one to two arcs each, and capped supports that fill the arena): a warm
// run must still allocate nothing. The direct entry is called because
// the registry path allocates the truncation note it reports by design.
TEST(AllocationRegression, DodinPastGrowthPointsIsAllocationFreeWhenWarm) {
  const Scenario sc =
      Scenario::calibrated(expmk::gen::lu_dag(6), 0.01, RetryModel::TwoState);
  Workspace ws;
  const auto run = [&] {
    return expmk::sp::dodin_two_state_flat(sc, {.max_atoms = 64}, ws);
  };
  const auto cold = run();
  (void)run();
  const std::uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
  const auto warm = run();
  const std::uint64_t allocs =
      g_alloc_count.load(std::memory_order_relaxed) - before;
  EXPECT_EQ(allocs, 0u);
  EXPECT_EQ(warm.mean, cold.mean);
  EXPECT_EQ(warm.duplications, cold.duplications);
  EXPECT_GT(cold.truncation.events, 0u);
}

// The Monte-Carlo engines allocate their per-call accumulators, but no
// per-task scratch: mc's lane finish matrix, cmc's duration and finish
// vectors and mc.hier's per-chunk duration and finish vectors all lease
// from the running thread's Workspace::local(). So a warm call makes as
// many heap allocations on LU k=16 (1,496 tasks) as on LU k=6 (91), and
// fewer than one per chunk.
TEST(AllocationRegression, MonteCarloAllocationsDoNotScaleWithTaskCount) {
  struct Counts {
    std::uint64_t mc, cmc, hier;
  };
  const auto warm_counts = [](int k) {
    const Scenario sc = Scenario::calibrated(expmk::gen::lu_dag(k), 0.01,
                                             RetryModel::TwoState);
    Workspace ws;
    double guard = 0.0;
    const auto count = [&](const auto& call) {
      guard += call();
      guard += call();
      const std::uint64_t before = g_alloc_count.load();
      guard += call();
      return g_alloc_count.load() - before;
    };
    Counts out{};
    out.mc = count([&] {
      expmk::mc::McConfig cfg;
      cfg.trials = 2'000;
      cfg.threads = 1;
      return expmk::mc::run_monte_carlo(sc, cfg).mean;
    });
    out.cmc = count([&] {
      expmk::mc::ConditionalMcConfig cfg;
      cfg.trials = 2'000;
      cfg.threads = 1;
      return expmk::mc::run_conditional_monte_carlo(sc, cfg).mean;
    });
    out.hier = count([&] {
      return expmk::exp::hier::evaluate_mc_hier(sc, 32, ws, 2'000, 7, 1)
          .mean;
    });
    EXPECT_FALSE(std::isnan(guard));
    return out;
  };
  const Counts small = warm_counts(6);
  const Counts large = warm_counts(16);
  EXPECT_EQ(small.mc, large.mc);
  EXPECT_EQ(small.cmc, large.cmc);
  EXPECT_EQ(small.hier, large.hier);
  for (const std::uint64_t n : {large.mc, large.cmc, large.hier}) {
    EXPECT_LT(n, expmk::mc::kEngineChunks);
  }
}

// --------------------------------------------- adapter property (x13)

std::vector<std::pair<std::string, Dag>> property_dags() {
  std::vector<std::pair<std::string, Dag>> dags;
  dags.emplace_back("diamond", expmk::test::diamond(0.4, 0.3, 0.5, 0.2));
  dags.emplace_back("chain6", expmk::gen::chain_dag(6, 7));
  dags.emplace_back("forkjoin", expmk::gen::fork_join_dag(5, 11));
  dags.emplace_back("sp6", expmk::gen::random_series_parallel(6, 3));
  dags.emplace_back("erdos10", expmk::gen::erdos_dag(10, 0.3, 5));
  return dags;
}

void expect_bit_identical(const EvalResult& a, const EvalResult& b,
                          const std::string& where) {
  EXPECT_EQ(a.supported, b.supported) << where;
  EXPECT_EQ(a.note, b.note) << where;
  EXPECT_EQ(a.censored_trials, b.censored_trials) << where;
  if (std::isnan(a.mean) || std::isnan(b.mean)) {
    EXPECT_TRUE(std::isnan(a.mean) && std::isnan(b.mean)) << where;
  } else {
    EXPECT_EQ(a.mean, b.mean) << where;
  }
  EXPECT_EQ(a.std_error, b.std_error) << where;
}

// Explicit workspace vs the registry's Workspace::local() lease: all 16
// evaluators, both retry models, cold workspace AND warm (second call on
// a reused workspace) — the warm arm is the one that catches kernels
// reading stale arena state.
TEST(WorkspaceAdapterProperty, ColdAndWarmWorkspaceBitIdenticalToDefault) {
  EvalOptions opt;
  opt.mc_trials = 2'000;
  opt.seed = 77;
  opt.threads = 1;

  const auto& reg = EvaluatorRegistry::builtin();
  ASSERT_EQ(reg.size(), 16u);
  Workspace warm;
  for (const auto& [label, g] : property_dags()) {
    const FailureModel model = calibrate(g, 0.01);
    for (const RetryModel retry :
         {RetryModel::TwoState, RetryModel::Geometric}) {
      const Scenario sc = Scenario::compile(g, FailureSpec(model), retry);
      for (const Evaluator& e : reg.evaluators()) {
        const std::string where =
            label + " / " + std::string(e.name()) + " / " +
            (retry == RetryModel::TwoState ? "two_state" : "geometric");
        const EvalResult reference = e.evaluate(sc, opt);
        Workspace cold;
        expect_bit_identical(e.evaluate(sc, opt, cold), reference,
                             where + " / cold");
        (void)e.evaluate(sc, opt, warm);  // dirty the arenas
        expect_bit_identical(e.evaluate(sc, opt, warm), reference,
                             where + " / warm");
      }
    }
  }
}

// Same property under heterogeneous rates for the het-capable catalogue.
TEST(WorkspaceAdapterProperty, HeterogeneousWarmBitIdenticalToDefault) {
  EvalOptions opt;
  opt.mc_trials = 1'000;
  opt.threads = 1;

  const auto& reg = EvaluatorRegistry::builtin();
  Workspace warm;
  for (const auto& [label, g] : property_dags()) {
    const double lambda = calibrate(g, 0.01).lambda;
    std::vector<double> rates(g.task_count());
    for (TaskId i = 0; i < g.task_count(); ++i) {
      rates[i] = lambda * (0.3 + static_cast<double>(i % 5) * 0.6);
    }
    const Scenario sc = Scenario::compile(g, FailureSpec::per_task(rates),
                                          RetryModel::TwoState);
    for (const Evaluator& e : reg.evaluators()) {
      const EvalResult reference = e.evaluate(sc, opt);
      (void)e.evaluate(sc, opt, warm);
      expect_bit_identical(e.evaluate(sc, opt, warm), reference,
                           label + " / " + std::string(e.name()));
    }
  }
}

// The flat atom fold in the bounds kernel claims to mirror the
// DiscreteDistribution object fold bit for bit; the test-only reference
// (tests/reference_estimators) RUNS the object fold, so comparing the two
// pins the claim (and any future drift in prob::kValueMergeEps /
// consolidate / renormalization arithmetic) exactly.
TEST(WorkspaceAdapterProperty, BoundsFlatFoldBitIdenticalToObjectFold) {
  for (const auto& [label, g] : property_dags()) {
    for (const double pfail : {0.0, 0.001, 0.05, 0.4}) {
      const FailureModel model = calibrate(g, pfail);
      const auto via_objects =
          expmk::ref::makespan_bounds_object_fold(g, model);
      const Scenario sc =
          Scenario::compile(g, FailureSpec(model), RetryModel::TwoState);
      Workspace ws;
      const auto via_kernel = expmk::core::makespan_bounds(sc, ws);
      const std::string where = label + " / pfail " + std::to_string(pfail);
      EXPECT_EQ(via_kernel.failure_free, via_objects.failure_free) << where;
      EXPECT_EQ(via_kernel.jensen_lower, via_objects.jensen_lower) << where;
      EXPECT_EQ(via_kernel.level_upper, via_objects.level_upper) << where;
    }
  }
}

// ------------------------------------------------- sweep pooling pin

// The sweep contract the refactor exists for: workspaces are pooled per
// WORKER THREAD — a grid of many cells x methods must not create more
// workspaces than workers (pre-refactor equivalent state was rebuilt per
// method call). The sweep runs from a fresh thread so its caller's
// workspace is new whatever ran earlier in this process; the pool's
// helpers (and their workspaces) persist across calls.
TEST(SweepPooling, OneWorkspacePerWorkerThread) {
  expmk::exp::SweepGrid grid;
  grid.generators = {"lu", "chain"};
  grid.sizes = {3, 4};
  grid.pfails = {0.001, 0.01};
  grid.methods = {"fo", "so", "sculli", "corlca", "bounds.upper"};
  grid.reference = "";
  grid.options.mc_trials = 100;

  const std::size_t threads = 2;
  const std::uint64_t before = Workspace::created_count();
  expmk::exp::SweepResult result;
  std::thread([&] {
    result = expmk::exp::SweepRunner().run(grid, threads);
  }).join();
  const std::uint64_t created = Workspace::created_count() - before;

  ASSERT_EQ(result.cells.size(), 2u * 2u * 2u * 5u);
  EXPECT_GE(created, 1u);
  EXPECT_LE(created, threads);
}

// ------------------------------------------- trial sampler span size

// The Monte-Carlo consumers (cmc, core::criticality, sched::fault_sim)
// lease the sampler's buffer once per campaign: a task_count() lease
// takes every trial with no heap allocation, and a lease of any other
// size is rejected rather than over- or under-run.
TEST(TrialScatter, SampleDurationsTakesATaskCountLease) {
  const Dag g = expmk::gen::erdos_dag(12, 0.3, 9);
  const Scenario sc = Scenario::compile(
      g, FailureSpec(calibrate(g, 0.02)), RetryModel::Geometric);
  const std::size_t n = g.task_count();
  Workspace ws;
  const Workspace::Frame frame(ws);
  const std::span<double> durations = ws.doubles(n);
  const std::span<double> short_lease = ws.doubles(n - 1);
  const std::span<double> long_lease = ws.doubles(n + 1);

  const std::uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
  std::size_t failed = 0;
  for (std::uint64_t t = 0; t < 50; ++t) {
    expmk::prob::McRng rng(123, t);
    failed += expmk::mc::sample_durations(sc, rng, durations);
  }
  const std::uint64_t allocs =
      g_alloc_count.load(std::memory_order_relaxed) - before;
  EXPECT_EQ(allocs, 0u);
  EXPECT_LE(failed, 50 * n);

  expmk::prob::McRng rng(1, 1);
  EXPECT_THROW((void)expmk::mc::sample_durations(sc, rng, short_lease),
               std::invalid_argument);
  EXPECT_THROW((void)expmk::mc::sample_durations(sc, rng, long_lease),
               std::invalid_argument);
}

}  // namespace
