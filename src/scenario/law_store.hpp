// scenario/law_store.hpp
//
// The content-addressed store of a scenario's module laws (the makespan
// laws exp::hier builds for the composite modules of the scenario's SP
// decomposition).
//
// Ownership follows the scenarios. Every Scenario — compiled, or a
// patch()/with_failure() clone — owns one LawStore of its own, never
// shared with its clones. The store maps a 128-bit content key to a
// shared_ptr holding the law and the certified truncation of building
// its subtree, and records every law the scenario's hierarchical builds
// built or were served. The process keeps only a WEAK index from key to
// law, so any law some live scenario holds can be found by content from
// anywhere: by a patch clone (every module outside the patched cone), by
// a fresh compile of the same inputs, and by a repeat of one module
// within a single build. A law dies with the last store holding it; the
// index forgets it when it next sweeps its expired entries.
//
// Thread safety: every member is safe to call concurrently. A law a
// store returns stays valid, unchanged, for the life of that store. No
// shared_ptr is released while a lock is held, so freeing a law's atoms
// never stalls a lookup.

#pragma once

#include <atomic>
#include <compare>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <utility>
#include <vector>

#include "prob/atom.hpp"
#include "prob/dist_kernels.hpp"

namespace expmk::scenario {

/// A module law's 128-bit content key (exp::hier's structural hash with
/// the atom budget mixed in). The all-zero key marks an empty table slot,
/// so a law under it is never stored (rebuilt instead; a 2^-128 event).
struct LawKey {
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  auto operator<=>(const LawKey&) const = default;
};

namespace detail {

/// Open-addressing map from LawKey to V. The keys are already uniform
/// hash bits, so a key's home slot is `a` masked to the power-of-two
/// capacity, probed linearly, at most 3/4 full: one flat array, where an
/// ordered map would walk ~15 nodes per lookup and allocate one per
/// entry. Deterministic: slots depend only on the insertion sequence,
/// and no result is ever read in slot order.
template <class V>
class KeyTable {
 public:
  /// True when one more entry would pass the 3/4 fill bound.
  [[nodiscard]] bool full() const noexcept {
    return 4 * (size_ + 1) > 3 * slots_.size();
  }

  [[nodiscard]] V* find(const LawKey& key) noexcept {
    if (slots_.empty()) return nullptr;
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = key.a & mask;; i = (i + 1) & mask) {
      Slot& s = slots_[i];
      if (s.key == key) return &s.value;
      if (s.key == LawKey{}) return nullptr;
    }
  }

  /// Stores `value` under `key` (not the zero key) unless the key is
  /// present. Returns the entry and whether it was inserted; `value` is
  /// moved from only then. The table must not be full() (compact first).
  std::pair<V*, bool> try_emplace(const LawKey& key, V&& value) {
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = key.a & mask;; i = (i + 1) & mask) {
      Slot& s = slots_[i];
      if (s.key == key) return {&s.value, false};
      if (s.key == LawKey{}) {
        s.key = key;
        s.value = std::move(value);
        ++size_;
        return {&s.value, true};
      }
    }
  }

  /// Keeps the entries `keep` accepts (the rest are destroyed here),
  /// re-slotted into the smallest power-of-two table they fill at most
  /// 2/3, so at least 1/12 of it can be inserted before the next
  /// compaction: O(1) amortized slot visits per insert. Keeping every
  /// entry of a full table doubles it.
  template <class Keep>
  void compact(Keep keep) {
    std::size_t n = 0;
    for (const Slot& s : slots_) n += s.key != LawKey{} && keep(s.value);
    std::size_t cap = 16;
    while (3 * (n + 1) > 2 * cap) cap *= 2;
    std::vector<Slot> old(cap);
    old.swap(slots_);
    size_ = 0;
    for (Slot& s : old) {
      if (s.key != LawKey{} && keep(s.value)) {
        (void)try_emplace(s.key, std::move(s.value));
      }
    }
  }

 private:
  struct Slot {
    LawKey key;
    V value{};
  };

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
};

}  // namespace detail

/// One stored law: its atoms at exact size, plus the cumulative certified
/// truncation of building its WHOLE subtree, so a hit charges the caller
/// the envelope a from-scratch build would have. Counted in
/// LawStore::live() from construction to destruction.
struct StoredLaw {
  StoredLaw(std::span<const prob::Atom> law,
            const prob::dist_kernels::TruncationCert& c);
  ~StoredLaw();
  StoredLaw(const StoredLaw&) = delete;
  StoredLaw& operator=(const StoredLaw&) = delete;

  const std::vector<prob::Atom> atoms;
  const prob::dist_kernels::TruncationCert cert;
};

class LawStore {
 public:
  /// Laws alive in the process, held by any store.
  struct Live {
    std::size_t laws = 0;
    std::size_t bytes = 0;  ///< atom bytes of those laws
  };

  /// The law under `key`: this store's own, else a live one from the
  /// process index, which this store then records as its own. Null when
  /// no live law has the key. Allocation-free when the store already
  /// holds the key.
  [[nodiscard]] const StoredLaw* find(const LawKey& key);

  /// Records a freshly built law here and in the process index. When
  /// another thread recorded the key in this store first, its law stays
  /// (both are bitwise the same).
  void insert(const LawKey& key, std::span<const prob::Atom> law,
              const prob::dist_kernels::TruncationCert& cert);

  /// Atom bytes of the laws this store holds. A law shared with other
  /// stores is counted in each of them.
  [[nodiscard]] std::size_t bytes() const noexcept {
    return bytes_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] static Live live() noexcept;

  /// Drops the process index. Laws held by live stores stay alive and
  /// stay theirs, but new stores no longer find them.
  static void clear_index();

 private:
  /// Records `law` under `key` unless this store holds the key already
  /// (then `law` is left as is); returns the stored entry. Holds mu_.
  const std::shared_ptr<const StoredLaw>& record(
      const LawKey& key, std::shared_ptr<const StoredLaw>& law);

  std::mutex mu_;
  detail::KeyTable<std::shared_ptr<const StoredLaw>> laws_;
  std::atomic<std::size_t> bytes_{0};
};

}  // namespace expmk::scenario
