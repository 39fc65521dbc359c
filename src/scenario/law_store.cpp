#include "scenario/law_store.hpp"

#include <atomic>
#include <utility>

namespace expmk::scenario {

namespace {

std::atomic<std::size_t> g_live_laws{0};
std::atomic<std::size_t> g_live_bytes{0};

/// The process-wide weak index. Expired entries are swept when an insert
/// finds the table full: it is compacted to its live entries, so a
/// sweep's O(capacity) work is paid for by the inserts since the
/// previous one (at least 1/12 of the capacity).
struct Index {
  std::mutex mu;
  detail::KeyTable<std::weak_ptr<const StoredLaw>> table;
};

Index& index() {
  static Index idx;
  return idx;
}

}  // namespace

StoredLaw::StoredLaw(std::span<const prob::Atom> law,
                     const prob::dist_kernels::TruncationCert& c)
    : atoms(law.begin(), law.end()), cert(c) {
  g_live_laws.fetch_add(1, std::memory_order_relaxed);
  g_live_bytes.fetch_add(atoms.size() * sizeof(prob::Atom),
                         std::memory_order_relaxed);
}

StoredLaw::~StoredLaw() {
  g_live_laws.fetch_sub(1, std::memory_order_relaxed);
  g_live_bytes.fetch_sub(atoms.size() * sizeof(prob::Atom),
                         std::memory_order_relaxed);
}

const StoredLaw* LawStore::find(const LawKey& key) {
  if (key == LawKey{}) return nullptr;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    if (const auto* own = laws_.find(key)) return own->get();
  }
  std::shared_ptr<const StoredLaw> law;
  {
    Index& idx = index();
    const std::lock_guard<std::mutex> lock(idx.mu);
    if (const auto* weak = idx.table.find(key)) law = weak->lock();
  }
  if (law == nullptr) return nullptr;
  // When another thread recorded the key first, `law` is left as is and
  // its reference is released below, after the unlock.
  const std::lock_guard<std::mutex> lock(mu_);
  return record(key, law).get();
}

void LawStore::insert(const LawKey& key, std::span<const prob::Atom> law,
                      const prob::dist_kernels::TruncationCert& cert) {
  if (key == LawKey{}) return;
  auto built = std::make_shared<const StoredLaw>(law, cert);
  std::weak_ptr<const StoredLaw> held;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    held = record(key, built);
  }
  Index& idx = index();
  const std::lock_guard<std::mutex> lock(idx.mu);
  if (idx.table.full()) {
    idx.table.compact([](const auto& weak) { return !weak.expired(); });
  }
  auto [slot, fresh] = idx.table.try_emplace(key, std::move(held));
  if (!fresh && slot->expired()) *slot = std::move(held);
  // `built` is released after the unlock: when another thread recorded
  // the key in this store first, this is its last reference.
}

const std::shared_ptr<const StoredLaw>& LawStore::record(
    const LawKey& key, std::shared_ptr<const StoredLaw>& law) {
  if (laws_.full()) laws_.compact([](const auto&) { return true; });
  const auto [slot, fresh] = laws_.try_emplace(key, std::move(law));
  if (fresh) {
    bytes_.fetch_add((*slot)->atoms.size() * sizeof(prob::Atom),
                     std::memory_order_relaxed);
  }
  return *slot;
}

LawStore::Live LawStore::live() noexcept {
  return {g_live_laws.load(std::memory_order_relaxed),
          g_live_bytes.load(std::memory_order_relaxed)};
}

void LawStore::clear_index() {
  detail::KeyTable<std::weak_ptr<const StoredLaw>> dropped;
  Index& idx = index();
  const std::lock_guard<std::mutex> lock(idx.mu);
  std::swap(dropped, idx.table);
}

}  // namespace expmk::scenario
