#include "exp/workspace.hpp"

#include <atomic>
#include <stdexcept>
#include <type_traits>

namespace expmk::exp {

namespace {

/// Process-wide construction counter (relaxed: a metrics hook, not a
/// fence), mirroring Scenario::compiled_count().
std::atomic<std::uint64_t> g_created{0};

}  // namespace

// The slot is found among the `live` checked-out ones by its buffer
// address (distinct for every non-empty buffer).
template <typename T>
std::span<T> Workspace::Pool<T>::grow(std::size_t live, std::span<T> lease,
                                      std::size_t n) {
  for (std::size_t slot = live; slot-- > 0;) {
    std::vector<T>& buf = buffers[slot];
    if (buf.empty() || buf.data() != lease.data()) continue;
    if (buf.size() < n) buf.resize(n);
    return {buf.data(), n};
  }
  throw std::invalid_argument("Workspace::grow: not a live lease");
}

template <typename T>
std::span<T> Workspace::grow(std::span<T> lease, std::size_t n) {
  if constexpr (std::is_same_v<T, double>) {
    return pool_d_.grow(cursors_.d, lease, n);
  } else if constexpr (std::is_same_v<T, std::uint32_t>) {
    return pool_u32_.grow(cursors_.u32, lease, n);
  } else if constexpr (std::is_same_v<T, std::uint64_t>) {
    return pool_u64_.grow(cursors_.u64, lease, n);
  } else if constexpr (std::is_same_v<T, prob::NormalMoments>) {
    return pool_m_.grow(cursors_.m, lease, n);
  } else if constexpr (std::is_same_v<T, int>) {
    return pool_i_.grow(cursors_.i, lease, n);
  } else {
    return pool_a_.grow(cursors_.a, lease, n);
  }
}

template std::span<double> Workspace::grow(std::span<double>, std::size_t);
template std::span<std::uint32_t> Workspace::grow(std::span<std::uint32_t>,
                                                  std::size_t);
template std::span<std::uint64_t> Workspace::grow(std::span<std::uint64_t>,
                                                  std::size_t);
template std::span<prob::NormalMoments> Workspace::grow(
    std::span<prob::NormalMoments>, std::size_t);
template std::span<int> Workspace::grow(std::span<int>, std::size_t);
template std::span<prob::Atom> Workspace::grow(std::span<prob::Atom>,
                                               std::size_t);

Workspace::Workspace() { g_created.fetch_add(1, std::memory_order_relaxed); }

void Workspace::release() noexcept {
  pool_d_.buffers.clear();
  pool_d_.buffers.shrink_to_fit();
  pool_u32_.buffers.clear();
  pool_u32_.buffers.shrink_to_fit();
  pool_u64_.buffers.clear();
  pool_u64_.buffers.shrink_to_fit();
  pool_m_.buffers.clear();
  pool_m_.buffers.shrink_to_fit();
  pool_i_.buffers.clear();
  pool_i_.buffers.shrink_to_fit();
  pool_a_.buffers.clear();
  pool_a_.buffers.shrink_to_fit();
  cursors_ = {};
}

std::size_t Workspace::bytes_reserved() const noexcept {
  return pool_d_.bytes() + pool_u32_.bytes() + pool_u64_.bytes() +
         pool_m_.bytes() + pool_i_.bytes() + pool_a_.bytes();
}

Workspace& Workspace::local() {
  thread_local Workspace ws;
  return ws;
}

std::uint64_t Workspace::created_count() noexcept {
  return g_created.load(std::memory_order_relaxed);
}

}  // namespace expmk::exp
