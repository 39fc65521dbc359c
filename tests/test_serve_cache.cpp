// Tests for the serving scenario cache (serve/cache.hpp):
//
//  * hit/miss/compile counters and the compile-once behavior on repeated
//    keys (pinned with Scenario::compiled_count());
//  * byte-budget LRU eviction from the tail, never the newest entry, and
//    a footprint estimate that grows with tasks and with edges;
//  * singleflight: concurrent misses on ONE key compile exactly once,
//    everyone shares the pointer;
//  * a failing compile poisons nobody — every waiter gets the exception,
//    the key is NOT cached, and a later request retries;
//  * lookup() (the by-hash protocol path) never compiles;
//  * the structure index behind patch-on-miss drops evicted keys, so a
//    stream of distinct graphs cannot grow it past the live entries;
//  * recharge() charges the module laws an evaluation stored in a cached
//    scenario and evicts past the budget, that entry included.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "exp/hier.hpp"
#include "gen/lu.hpp"
#include "gen/random_dags.hpp"
#include "scenario/law_store.hpp"
#include "scenario/scenario.hpp"
#include "serve/cache.hpp"

namespace {

using expmk::scenario::FailureSpec;
using expmk::scenario::Scenario;
using expmk::serve::CacheStats;
using expmk::serve::ScenarioCache;

ScenarioCache::ScenarioPtr compile_cell(double lambda) {
  return std::make_shared<const Scenario>(Scenario::compile(
      expmk::gen::lu_dag(3), FailureSpec::uniform(lambda)));
}

TEST(ServeCache, RepeatedKeysCompileOnce) {
  ScenarioCache cache(/*byte_budget=*/64u << 20, /*shards=*/4);
  const std::uint64_t before = Scenario::compiled_count();
  for (int round = 0; round < 10; ++round) {
    for (std::uint64_t key = 1; key <= 3; ++key) {
      ScenarioCache::Outcome outcome{};
      const auto sc = cache.get_or_compile(
          key, [&] { return compile_cell(0.01 * static_cast<double>(key)); },
          &outcome);
      ASSERT_NE(sc, nullptr);
      EXPECT_EQ(outcome, round == 0 ? ScenarioCache::Outcome::Miss
                                    : ScenarioCache::Outcome::Hit);
    }
  }
  // The warm path never recompiles: compiles == distinct keys.
  EXPECT_EQ(Scenario::compiled_count() - before, 3u);
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.compiles, 3u);
  EXPECT_EQ(stats.misses, 3u);
  EXPECT_EQ(stats.hits, 27u);
  EXPECT_EQ(stats.entries, 3u);
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_GT(stats.bytes, 0u);
}

TEST(ServeCache, ByteBudgetEvictsFromLruTail) {
  // One shard so the LRU order is global; budget sized for ~2 entries.
  const std::size_t one = expmk::serve::scenario_footprint_bytes(
      *compile_cell(0.01));
  ScenarioCache cache(2 * one + one / 2, /*shards=*/1);

  ScenarioCache::Outcome outcome{};
  (void)cache.get_or_compile(1, [] { return compile_cell(0.01); });
  (void)cache.get_or_compile(2, [] { return compile_cell(0.02); });
  // Touch key 1 so key 2 is the LRU tail when 3 arrives.
  (void)cache.get_or_compile(1, [] { return compile_cell(0.01); },
                             &outcome);
  EXPECT_EQ(outcome, ScenarioCache::Outcome::Hit);
  (void)cache.get_or_compile(3, [] { return compile_cell(0.03); });

  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.lookup(2), nullptr);     // the tail went
  EXPECT_NE(cache.lookup(1), nullptr);     // the touched entry stayed
  EXPECT_NE(cache.lookup(3), nullptr);     // the newest is never evicted
  EXPECT_LE(cache.stats().bytes, 2 * one + one / 2);
}

TEST(ServeCache, FootprintGrowsWithTasksAndEdges) {
  const auto footprint = [](const expmk::graph::Dag& g) {
    return expmk::serve::scenario_footprint_bytes(
        Scenario::compile(g, FailureSpec::uniform(0.01)));
  };
  constexpr expmk::graph::TaskId kTasks = 8;
  expmk::graph::Dag chain = expmk::graph::Dag::with_tasks(kTasks, 1.0);
  for (expmk::graph::TaskId i = 0; i + 1 < kTasks; ++i) {
    chain.add_edge(i, i + 1);
  }
  // Same tasks, more edges: the chain plus every forward shortcut.
  expmk::graph::Dag dense = chain;
  for (expmk::graph::TaskId i = 0; i < kTasks; ++i) {
    for (expmk::graph::TaskId j = i + 2; j < kTasks; ++j) dense.add_edge(i, j);
  }
  EXPECT_GT(footprint(dense), footprint(chain));
  // Same edges, more tasks: the chain plus isolated tasks.
  expmk::graph::Dag wide = chain;
  for (int i = 0; i < 4; ++i) (void)wide.add_task(1.0);
  ASSERT_EQ(wide.edge_count(), chain.edge_count());
  EXPECT_GT(footprint(wide), footprint(chain));
  // Both at once, on the library's LU generator.
  EXPECT_GT(footprint(expmk::gen::lu_dag(4)), footprint(expmk::gen::lu_dag(3)));
}

TEST(ServeCache, SingleflightCoalescesConcurrentMisses) {
  ScenarioCache cache(64u << 20, /*shards=*/2);
  const std::uint64_t before = Scenario::compiled_count();
  constexpr int kThreads = 8;
  std::atomic<int> ready{0};
  std::vector<ScenarioCache::ScenarioPtr> results(kThreads);
  std::vector<ScenarioCache::Outcome> outcomes(kThreads);
  {
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        ready.fetch_add(1);
        while (ready.load() < kThreads) {
        }  // maximize the racing window
        results[t] = cache.get_or_compile(
            42,
            [] {
              // A slow compile keeps the in-flight ticket visible.
              std::this_thread::sleep_for(std::chrono::milliseconds(20));
              return compile_cell(0.05);
            },
            &outcomes[t]);
      });
    }
    for (auto& th : threads) th.join();
  }
  EXPECT_EQ(Scenario::compiled_count() - before, 1u);
  EXPECT_EQ(cache.stats().compiles, 1u);
  int miss = 0;
  for (int t = 0; t < kThreads; ++t) {
    ASSERT_NE(results[t], nullptr);
    EXPECT_EQ(results[t], results[0]);  // one shared instance
    if (outcomes[t] == ScenarioCache::Outcome::Miss) ++miss;
  }
  EXPECT_EQ(miss, 1);  // exactly one owner; the rest hit or coalesced
  EXPECT_EQ(cache.stats().coalesced + cache.stats().hits + 1,
            static_cast<std::uint64_t>(kThreads));
}

TEST(ServeCache, FailedCompileSharedThenRetried) {
  ScenarioCache cache(64u << 20, /*shards=*/1);
  EXPECT_THROW(
      (void)cache.get_or_compile(
          7,
          []() -> ScenarioCache::ScenarioPtr {
            throw std::runtime_error("compile exploded");
          }),
      std::runtime_error);
  // The failure was NOT cached: the key retries and succeeds.
  ScenarioCache::Outcome outcome{};
  const auto sc =
      cache.get_or_compile(7, [] { return compile_cell(0.01); }, &outcome);
  ASSERT_NE(sc, nullptr);
  EXPECT_EQ(outcome, ScenarioCache::Outcome::Miss);
  EXPECT_EQ(cache.stats().compiles, 1u);
  EXPECT_EQ(cache.stats().misses, 2u);
}

TEST(ServeCache, LookupNeverCompiles) {
  ScenarioCache cache(64u << 20);
  ScenarioCache::Outcome outcome{};
  EXPECT_EQ(cache.lookup(99, &outcome), nullptr);
  EXPECT_EQ(outcome, ScenarioCache::Outcome::Absent);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().compiles, 0u);

  (void)cache.get_or_compile(99, [] { return compile_cell(0.01); });
  EXPECT_NE(cache.lookup(99, &outcome), nullptr);
  EXPECT_EQ(outcome, ScenarioCache::Outcome::Hit);
}

TEST(ServeCache, StructureIndexShrinksWithEviction) {
  // 1,000 distinct chain structures through a budget of a few entries:
  // every eviction must take its structure slot along.
  const auto chain = [](int i) {
    expmk::graph::Dag g = expmk::graph::Dag::with_tasks(4, 1.0);
    for (expmk::graph::TaskId t = 0; t + 1 < 4; ++t) g.add_edge(t, t + 1);
    g.set_weight(0, 1.0 + i);
    return std::make_shared<const Scenario>(
        Scenario::compile(g, FailureSpec::uniform(0.01)));
  };
  const std::size_t one = expmk::serve::scenario_footprint_bytes(*chain(0));
  ScenarioCache cache(4 * one, /*shards=*/1);
  const auto patch = [](const Scenario& sibling) {
    return std::make_shared<const Scenario>(
        sibling.with_failure(FailureSpec::uniform(0.02)));
  };
  for (int i = 0; i < 1000; ++i) {
    const auto key = static_cast<std::uint64_t>(i + 1);
    (void)cache.get_or_compile(key, /*structure_key=*/key << 20, patch,
                               [&] { return chain(i); });
  }
  const CacheStats stats = cache.stats();
  EXPECT_GE(stats.evictions, 990u);
  EXPECT_GT(stats.structures, 0u);
  EXPECT_LE(stats.structures, stats.entries);

  // The index still serves patch-on-miss: a sibling of a live entry is
  // patched, not compiled.
  ScenarioCache::Outcome outcome{};
  (void)cache.get_or_compile(5000, /*structure_key=*/1000ull << 20, patch,
                             [&] { return chain(999); }, &outcome);
  EXPECT_EQ(outcome, ScenarioCache::Outcome::Patched);
}

TEST(ServeCache, RechargeChargesModuleLaws) {
  const auto sc = std::make_shared<const Scenario>(Scenario::calibrated(
      expmk::gen::tiled_fork_join(6, 3, 4, 7), 0.01));
  const std::size_t bare = expmk::serve::scenario_footprint_bytes(*sc);
  ScenarioCache roomy(64u << 20, /*shards=*/1);
  ScenarioCache tight(bare + 1024, /*shards=*/1);
  (void)roomy.get_or_compile(1, [&] { return sc; });
  (void)tight.get_or_compile(1, [&] { return sc; });
  EXPECT_EQ(tight.stats().bytes, bare);

  expmk::exp::Workspace ws;
  (void)expmk::exp::hier::evaluate_sp_hier(*sc, 64, ws);
  const std::size_t laws = sc->law_store().bytes();
  ASSERT_GT(laws, 1024u);
  EXPECT_EQ(expmk::serve::scenario_footprint_bytes(*sc), bare + laws);
  EXPECT_EQ(tight.stats().bytes, bare);  // charged only on recharge

  roomy.recharge(1);
  EXPECT_EQ(roomy.stats().bytes, bare + laws);
  EXPECT_EQ(roomy.stats().entries, 1u);
  // The laws push the only entry past the budget: it goes, although it is
  // the newest.
  tight.recharge(1);
  const CacheStats stats = tight.stats();
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.bytes, 0u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(tight.lookup(1), nullptr);
  tight.recharge(1);  // absent: a no-op
  EXPECT_EQ(tight.stats().evictions, 1u);
}

}  // namespace
