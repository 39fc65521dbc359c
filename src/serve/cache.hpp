// serve/cache.hpp
//
// The content-hash scenario cache — the piece that makes a long-lived
// expmk service economical: Scenario::compile is ~20x one analytic
// evaluation, so at traffic scale the cache IS the product. Keys are
// scenario::content_hash values (a pure function of canonical taskgraph
// bytes + FailureSpec + RetryModel, version-tagged and golden-pinned),
// so identical requests from any client, any connection, any server
// generation map to one compiled Scenario.
//
// Structure:
//  * Sharded: the top bits of the key pick one of `shards` independent
//    (mutex, map, LRU list) triples, so concurrent hits on different
//    keys never contend on one lock. Each shard owns an equal slice of
//    the byte budget.
//  * Byte-budget LRU: every entry carries a footprint estimate
//    (scenario_footprint_bytes); inserting past the shard budget evicts
//    from the LRU tail. The newest entry is never evicted — a scenario
//    larger than the whole budget still serves its own request. The
//    footprint includes the module laws a scenario's hierarchical
//    evaluations store in it, which grow after insertion; recharge()
//    re-charges an entry after each evaluation and evicts past the
//    budget, that entry included.
//  * Singleflight: concurrent misses on ONE key compile once. The first
//    miss inserts an in-flight ticket and compiles outside the shard
//    lock; later misses wait on the ticket and share the result (or the
//    exception). Misses on DIFFERENT keys compile concurrently.
//
// Entries hand out shared_ptr<const Scenario>: eviction only drops the
// cache's reference, so in-flight evaluations on an evicted scenario
// finish safely (Scenario is immutable and thread-shareable).
//
// Counters (hits / misses / coalesced / compiles / evictions / bytes /
// entries / structures) are exposed in the STATS frame.

#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "scenario/scenario.hpp"

namespace expmk::serve {

/// Snapshot of the cache counters (STATS frame / bench output).
struct CacheStats {
  std::uint64_t hits = 0;       ///< lookups served from the map
  std::uint64_t misses = 0;     ///< lookups that found nothing
  std::uint64_t coalesced = 0;  ///< misses that joined an in-flight compile
  std::uint64_t compiles = 0;   ///< full Scenario compiles performed
  std::uint64_t patched = 0;    ///< misses served by patching a sibling
  std::uint64_t evictions = 0;  ///< entries dropped by the byte budget
  std::uint64_t entries = 0;    ///< live entries right now
  std::uint64_t bytes = 0;      ///< estimated bytes cached right now
  std::uint64_t structures = 0; ///< structure keys indexed for patching
};

/// Rough footprint of one compiled Scenario in bytes — the eviction
/// currency. An ESTIMATE (documented in DESIGN.md): the per-task and
/// per-edge vector payloads plus a fixed overhead per task for the Dag
/// copy's names/adjacency, plus the atom bytes of the module laws in its
/// law store; exact malloc accounting is not worth chasing for a budget
/// knob.
[[nodiscard]] std::size_t scenario_footprint_bytes(
    const scenario::Scenario& sc) noexcept;

/// Sharded, byte-budgeted, singleflight LRU of compiled scenarios. All
/// methods are thread-safe.
class ScenarioCache {
 public:
  using ScenarioPtr = std::shared_ptr<const scenario::Scenario>;
  using CompileFn = std::function<ScenarioPtr()>;
  /// Derives the requested scenario from a cached sibling that shares its
  /// structure key (same graph + retry, different FailureSpec) — the
  /// Scenario::with_failure fast path. Must return a scenario
  /// bit-identical to what CompileFn would have produced.
  using PatchFn = std::function<ScenarioPtr(const scenario::Scenario&)>;

  /// `byte_budget` is split evenly across `shards` (each shard evicts
  /// independently). shards == 0 is promoted to 1.
  explicit ScenarioCache(std::size_t byte_budget, std::size_t shards = 8);

  /// How a get_or_compile / lookup call was served (echoed per-response).
  enum class Outcome {
    Hit,        ///< served from the map
    Miss,       ///< this call compiled the scenario
    Patched,    ///< this call derived the scenario from a cached sibling
    Coalesced,  ///< this call waited on another caller's compile
    Absent,     ///< lookup-only call found nothing
  };

  /// Returns the scenario for `key`, compiling it with `compile` on a
  /// miss (outside the shard lock; concurrent misses on the same key
  /// coalesce onto one compile). Rethrows the compile's exception to
  /// every coalesced waiter — a poisoned key is NOT cached, so a later
  /// request retries.
  [[nodiscard]] ScenarioPtr get_or_compile(std::uint64_t key,
                                           const CompileFn& compile,
                                           Outcome* outcome = nullptr);

  /// As get_or_compile, with the patch-on-miss fast path: on a miss,
  /// when another cached entry shares `structure_key`, the scenario is
  /// derived from it via `patch` (Outcome::Patched, `patched` counter)
  /// instead of compiled from scratch — with_failure re-derives only the
  /// rate-dependent planes and shares every structural cache, so this is
  /// an order of magnitude cheaper than a compile at scale. A throwing
  /// patch falls back to the full compile. Successful inserts register
  /// `structure_key` so later same-structure misses find this entry.
  [[nodiscard]] ScenarioPtr get_or_compile(std::uint64_t key,
                                           std::uint64_t structure_key,
                                           const PatchFn& patch,
                                           const CompileFn& compile,
                                           Outcome* outcome = nullptr);

  /// Hash-only lookup (a by-hash protocol request): nullptr when absent.
  /// Counts a hit or a miss.
  [[nodiscard]] ScenarioPtr lookup(std::uint64_t key,
                                   Outcome* outcome = nullptr);

  /// Re-charges the entry for `key` at its current footprint (an
  /// evaluation may have stored module laws in it) and evicts from the
  /// LRU tail past the shard budget. Unlike an insert this may evict the
  /// entry itself: its request has been served, and a scenario whose
  /// laws alone outgrow the budget must not keep growing in the cache.
  /// No-op when `key` is not cached. No counter moves but `evictions`.
  void recharge(std::uint64_t key);

  [[nodiscard]] CacheStats stats() const;

  [[nodiscard]] std::size_t shard_count() const noexcept {
    return shards_.size();
  }

 private:
  struct InFlight {
    std::mutex m;
    std::condition_variable cv;
    bool done = false;
    ScenarioPtr result;
    std::exception_ptr error;
  };

  struct Entry {
    ScenarioPtr scenario;
    std::size_t bytes = 0;
    std::uint64_t structure_key = 0;
    std::list<std::uint64_t>::iterator lru_pos;
  };

  /// An evicted entry: its keys, for unindexing, and the cache's
  /// reference, released after the shard lock.
  struct Victim {
    std::uint64_t structure_key = 0;
    std::uint64_t key = 0;
    ScenarioPtr scenario;
  };
  using Evicted = std::vector<Victim>;

  struct Shard {
    mutable std::mutex m;
    std::map<std::uint64_t, Entry> entries;
    std::list<std::uint64_t> lru;  // front = most recently used
    std::map<std::uint64_t, std::shared_ptr<InFlight>> inflight;
    std::size_t bytes = 0;
    // Per-shard counters, folded by stats().
    std::uint64_t hits = 0, misses = 0, coalesced = 0, compiles = 0,
                  patched = 0, evictions = 0;
  };

  Shard& shard_for(std::uint64_t key) noexcept {
    // Top bits: content_hash finalizes with a full-width mix, and the
    // bottom bits keep the LRU maps' keys spread within a shard.
    return shards_[static_cast<std::size_t>(key >> 48) % shards_.size()];
  }

  /// Inserts under the shard lock (caller holds it) and evicts past the
  /// budget, appending each evicted entry to `evicted`.
  void insert_locked(Shard& s, std::uint64_t key,
                     std::uint64_t structure_key, ScenarioPtr sc,
                     Evicted& evicted);

  /// Evicts from the LRU tail while the shard is past its budget and
  /// holds more than `keep` entries (caller holds the shard lock).
  void evict_locked(Shard& s, std::size_t keep, Evicted& evicted);

  /// Erases the evicted entries' structure-index slots that still name
  /// them. Takes structure_m_; call without a shard lock.
  void unindex(const Evicted& evicted);

  /// A live cached entry for `key` without counter or LRU side effects
  /// (sibling resolution must not distort the hit/miss telemetry).
  [[nodiscard]] ScenarioPtr peek(std::uint64_t key);

  std::size_t per_shard_budget_;
  std::vector<Shard> shards_;

  // structure key -> most recent content key inserted under it. Own lock,
  // never held together with a shard lock (all accesses copy and
  // release). A key is indexed before its entry is inserted, and an
  // eviction erases the slot if it still names the evicted key, so the
  // index never outgrows the live entries.
  mutable std::mutex structure_m_;
  std::map<std::uint64_t, std::uint64_t> structure_index_;
};

}  // namespace expmk::serve
