#include "serve/cache.hpp"

#include <algorithm>

namespace expmk::serve {

std::size_t scenario_footprint_bytes(
    const scenario::Scenario& sc) noexcept {
  const std::size_t tasks = sc.task_count();
  const std::size_t edges = sc.dag().edge_count();
  // What a compiled Scenario holds, per task:
  //  * 7 double planes: six in position order (the CSR's weights and the
  //    Scenario's rate, p, q, 1/log1p and failure-free finish planes)
  //    plus the Dag copy's weights;
  //  * the CSR's 4 u32 planes: order, position, pred and succ offsets;
  //  * the Dag copy's name and its two adjacency vectors (~96 bytes
  //    amortized).
  // Per edge: the Dag's forward + reverse slots and the CSR's pred and
  // succ index planes (four u32s, charged as three). Plus a fixed
  // overhead for the object shells. Not charged: a per-task rate vector
  // (one more double plane), and the SP decomposition, which is about as
  // large as the rest but is built lazily after insertion (plan features,
  // hier). A patch clone shares the Dag, the CSR and the decomposition
  // with its sibling and owns only its five Scenario planes, yet is
  // charged in full. On LU cells glibc counts ~20% more than this for a
  // fresh compile and ~5x less for a clone; the budgets in use were
  // sized on these constants, so they stay. An estimate, not an audit —
  // see the file comment.
  return tasks * (7 * sizeof(double) + 4 * sizeof(std::uint32_t) + 96) +
         edges * 3 * sizeof(std::uint32_t) + 1024;
}

ScenarioCache::ScenarioCache(std::size_t byte_budget, std::size_t shards)
    : per_shard_budget_(byte_budget / std::max<std::size_t>(1, shards)),
      shards_(std::max<std::size_t>(1, shards)) {}

void ScenarioCache::insert_locked(Shard& s, std::uint64_t key,
                                  std::uint64_t structure_key,
                                  ScenarioPtr sc, Evicted& evicted) {
  const auto found = s.entries.find(key);
  if (found != s.entries.end()) {
    // A racing caller landed the same key first (possible when an entry
    // was evicted between ticket creation and re-insert); keep theirs.
    return;
  }
  s.lru.push_front(key);
  Entry e;
  e.bytes = scenario_footprint_bytes(*sc);
  e.scenario = std::move(sc);
  e.structure_key = structure_key;
  e.lru_pos = s.lru.begin();
  s.bytes += e.bytes;
  s.entries.emplace(key, std::move(e));
  // Evict from the LRU tail past the shard budget — but never the entry
  // just inserted: a scenario bigger than the whole budget must still
  // serve the request that compiled it.
  while (s.bytes > per_shard_budget_ && s.entries.size() > 1) {
    const std::uint64_t victim = s.lru.back();
    const auto it = s.entries.find(victim);
    s.bytes -= it->second.bytes;
    evicted.emplace_back(it->second.structure_key, victim);
    s.entries.erase(it);
    s.lru.pop_back();
    ++s.evictions;
  }
}

ScenarioCache::ScenarioPtr ScenarioCache::peek(std::uint64_t key) {
  Shard& s = shard_for(key);
  const std::lock_guard<std::mutex> lock(s.m);
  const auto found = s.entries.find(key);
  return found == s.entries.end() ? nullptr : found->second.scenario;
}

ScenarioCache::ScenarioPtr ScenarioCache::get_or_compile(
    std::uint64_t key, const CompileFn& compile, Outcome* outcome) {
  return get_or_compile(key, 0, nullptr, compile, outcome);
}

ScenarioCache::ScenarioPtr ScenarioCache::get_or_compile(
    std::uint64_t key, std::uint64_t structure_key, const PatchFn& patch,
    const CompileFn& compile, Outcome* outcome) {
  Shard& s = shard_for(key);
  std::shared_ptr<InFlight> ticket;
  bool owner = false;
  {
    const std::lock_guard<std::mutex> lock(s.m);
    const auto found = s.entries.find(key);
    if (found != s.entries.end()) {
      // Touch: move to the LRU front.
      s.lru.splice(s.lru.begin(), s.lru, found->second.lru_pos);
      ++s.hits;
      if (outcome != nullptr) *outcome = Outcome::Hit;
      return found->second.scenario;
    }
    const auto flying = s.inflight.find(key);
    if (flying != s.inflight.end()) {
      ticket = flying->second;
      ++s.coalesced;
    } else {
      ticket = std::make_shared<InFlight>();
      s.inflight.emplace(key, ticket);
      owner = true;
      ++s.misses;
    }
  }

  if (!owner) {
    // Singleflight wait: share the owner's result or exception.
    std::unique_lock<std::mutex> lock(ticket->m);
    ticket->cv.wait(lock, [&] { return ticket->done; });
    if (outcome != nullptr) *outcome = Outcome::Coalesced;
    if (ticket->error) std::rethrow_exception(ticket->error);
    return ticket->result;
  }

  // Owner path: compile OUTSIDE the shard lock (a compile is the ~20x
  // expensive operation the cache exists to amortize; holding the lock
  // would serialize unrelated keys in this shard behind it). When a
  // same-structure sibling is cached, patch it instead — with_failure
  // shares every structural cache and re-derives only the rate planes.
  ScenarioPtr sc;
  std::exception_ptr error;
  bool was_patch = false;
  if (patch != nullptr) {
    ScenarioPtr sibling;
    {
      std::uint64_t sibling_key = 0;
      {
        const std::lock_guard<std::mutex> lock(structure_m_);
        const auto it = structure_index_.find(structure_key);
        if (it != structure_index_.end()) sibling_key = it->second;
      }
      if (sibling_key != 0 && sibling_key != key) {
        sibling = peek(sibling_key);
      }
    }
    if (sibling != nullptr) {
      try {
        sc = patch(*sibling);
        was_patch = sc != nullptr;
      } catch (...) {
        sc = nullptr;  // fall through to the full compile
      }
    }
  }
  if (sc == nullptr) {
    try {
      sc = compile();
      if (sc == nullptr) {
        throw std::logic_error(
            "ScenarioCache: compile callback returned null");
      }
    } catch (...) {
      error = std::current_exception();
    }
  }

  // Index before inserting: an eviction that follows the insert then
  // always finds this slot to erase.
  if (error == nullptr && patch != nullptr) {
    const std::lock_guard<std::mutex> lock(structure_m_);
    structure_index_[structure_key] = key;
  }
  Evicted evicted;
  {
    const std::lock_guard<std::mutex> lock(s.m);
    if (error == nullptr) {
      insert_locked(s, key, structure_key, sc, evicted);
      if (was_patch) {
        ++s.patched;
      } else {
        ++s.compiles;
      }
    }
    // A failed compile is NOT cached: drop the ticket so the next
    // request retries (the failure may have been transient input).
    s.inflight.erase(key);
  }
  if (!evicted.empty()) {
    const std::lock_guard<std::mutex> lock(structure_m_);
    for (const auto& [skey, victim] : evicted) {
      const auto it = structure_index_.find(skey);
      if (it != structure_index_.end() && it->second == victim) {
        structure_index_.erase(it);
      }
    }
  }
  {
    const std::lock_guard<std::mutex> lock(ticket->m);
    ticket->result = sc;
    ticket->error = error;
    ticket->done = true;
  }
  ticket->cv.notify_all();

  if (outcome != nullptr) *outcome = was_patch ? Outcome::Patched
                                               : Outcome::Miss;
  if (error) std::rethrow_exception(error);
  return sc;
}

ScenarioCache::ScenarioPtr ScenarioCache::lookup(std::uint64_t key,
                                                 Outcome* outcome) {
  Shard& s = shard_for(key);
  const std::lock_guard<std::mutex> lock(s.m);
  const auto found = s.entries.find(key);
  if (found == s.entries.end()) {
    ++s.misses;
    if (outcome != nullptr) *outcome = Outcome::Absent;
    return nullptr;
  }
  s.lru.splice(s.lru.begin(), s.lru, found->second.lru_pos);
  ++s.hits;
  if (outcome != nullptr) *outcome = Outcome::Hit;
  return found->second.scenario;
}

CacheStats ScenarioCache::stats() const {
  CacheStats out;
  for (const Shard& s : shards_) {
    const std::lock_guard<std::mutex> lock(s.m);
    out.hits += s.hits;
    out.misses += s.misses;
    out.coalesced += s.coalesced;
    out.compiles += s.compiles;
    out.patched += s.patched;
    out.evictions += s.evictions;
    out.entries += s.entries.size();
    out.bytes += s.bytes;
  }
  const std::lock_guard<std::mutex> lock(structure_m_);
  out.structures = structure_index_.size();
  return out;
}

}  // namespace expmk::serve
