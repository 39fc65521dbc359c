// exp/workspace.hpp
//
// The reusable scratch subsystem behind the allocation-free evaluation
// hot paths. Every analytic estimator needs O(V)–O(V^2) of typed scratch
// (level arrays, longest-path distances, Normal moments, a covariance
// matrix); before this layer each method heap-allocated those vectors on
// every call, which dominates the cost of evaluating small-to-mid DAGs —
// exactly the regime a serving deployment hits millions of times per
// scenario. A Workspace turns that into a handful of flat typed arenas
// that are *leased* per evaluation and reused forever after:
//
//     exp::Workspace ws;                       // or Workspace::local()
//     for (;;) evaluator.evaluate(sc, opt, ws);  // steady state: 0 allocs
//
// Lease/reuse contract:
//  * A lease (`doubles(n)`, `u32(n)`, ...) checks out the next buffer of
//    that type, grown to at least `n` elements. Buffer CONTENTS ARE
//    UNSPECIFIED — kernels must fully overwrite (or explicitly fill)
//    what they read; nothing is zeroed on checkout.
//  * Leases are scoped by Workspace::Frame (RAII): a kernel opens a frame,
//    takes its leases, and the frame's destructor returns them. Because a
//    returned buffer is re-leased at the same checkout slot on the next
//    call, a warm workspace serves any repetition of the same call
//    sequence with ZERO heap allocations (tests/test_workspace.cpp pins
//    this with a counting operator new for the analytic evaluators).
//  * Growth policy: arenas grow monotonically to the high-water mark of
//    every kernel that ever leased a given slot, and are never shrunk.
//    A live lease that outgrows itself grows in place (`grow`): its own
//    slot is resized, its contents kept, and no other slot is touched or
//    taken, so the slot sequence of a call does not depend on how much
//    it grew. reset() returns all leases but keeps capacity; release()
//    frees everything (for memory-pressure handling between batches) —
//    every kernel takes its scratch from here, so nothing else holds
//    evaluation memory between calls.
//  * Thread affinity: a Workspace is NOT thread-safe — one thread at a
//    time. The canonical deployment is one workspace per worker thread
//    (Workspace::local() is the thread-local pool that exp::SweepRunner
//    and the serving executor lease from).
//
// Frames nest: a kernel that calls another workspace kernel simply sees
// its callee open and close an inner frame above its own leases.

#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "prob/atom.hpp"
#include "prob/normal.hpp"

namespace expmk::exp {

/// Reusable per-thread scratch arenas for the evaluation hot paths. See
/// the file comment for the lease/reuse contract.
class Workspace {
 public:
  Workspace();
  Workspace(const Workspace&) = delete;
  Workspace& operator=(const Workspace&) = delete;

  /// RAII lease scope: captures the checkout cursors on construction and
  /// restores them on destruction, returning every lease taken inside the
  /// frame. Every public workspace kernel opens one frame around its own
  /// leases, so repeated calls re-lease the same (already grown) buffers.
  class Frame {
   public:
    explicit Frame(Workspace& ws) noexcept : ws_(ws), saved_(ws.cursors_) {}
    Frame(const Frame&) = delete;
    Frame& operator=(const Frame&) = delete;
    ~Frame() { ws_.cursors_ = saved_; }

   private:
    friend class Workspace;
    Workspace& ws_;
    struct Cursors {
      std::size_t d = 0, u32 = 0, u64 = 0, m = 0, i = 0, a = 0;
    } saved_;
  };

  // --------------------------------------------------------------- leases
  // Each call checks out the next buffer of that type, sized to at least
  // `n`; contents are unspecified (see the contract above).
  [[nodiscard]] std::span<double> doubles(std::size_t n) {
    return pool_d_.lease(cursors_.d++, n);
  }
  [[nodiscard]] std::span<std::uint32_t> u32(std::size_t n) {
    return pool_u32_.lease(cursors_.u32++, n);
  }
  [[nodiscard]] std::span<std::uint64_t> u64(std::size_t n) {
    return pool_u64_.lease(cursors_.u64++, n);
  }
  [[nodiscard]] std::span<prob::NormalMoments> moments(std::size_t n) {
    return pool_m_.lease(cursors_.m++, n);
  }
  [[nodiscard]] std::span<int> ints(std::size_t n) {
    return pool_i_.lease(cursors_.i++, n);
  }
  [[nodiscard]] std::span<prob::Atom> atoms(std::size_t n) {
    return pool_a_.lease(cursors_.a++, n);
  }

  /// Grows a live lease in place: `lease` must be a non-empty span this
  /// workspace handed out (by a lease call or an earlier grow) and that is
  /// still checked out. Its own slot is resized to at least `n` elements
  /// and keeps its contents; the returned span replaces `lease`. No other
  /// lease moves and no slot is checked out, so a repeated call sequence
  /// re-leases the same slots. Throws std::invalid_argument when `lease`
  /// is not such a span. Defined for the six lease element types.
  template <typename T>
  [[nodiscard]] std::span<T> grow(std::span<T> lease, std::size_t n);

  /// Returns every lease (cursors to zero) but keeps all capacity — the
  /// steady-state entry point between unrelated evaluations when no Frame
  /// is on the stack.
  void reset() noexcept { cursors_ = {}; }

  /// Frees all arenas (capacity back to zero). For memory-pressure
  /// handling between batches; never called on the hot path.
  void release() noexcept;

  /// Total bytes currently reserved across all arenas — the growth-policy
  /// observable (monotone under the lease contract until release()).
  [[nodiscard]] std::size_t bytes_reserved() const noexcept;

  /// The calling thread's pooled workspace. This is what the workspace-
  /// less Evaluator::evaluate overload, exp::SweepRunner workers and the
  /// serving executor's workers lease from: one pooled workspace per
  /// worker thread, created on first use and alive until the thread exits.
  [[nodiscard]] static Workspace& local();

  /// Process-wide count of Workspace constructions — the metrics hook the
  /// one-pool-per-worker contract is pinned with (tests assert a sweep
  /// creates at most `threads` workspaces, not one per cell).
  [[nodiscard]] static std::uint64_t created_count() noexcept;

 private:
  template <typename T>
  struct Pool {
    // One vector per checkout slot: growing a buffer never moves any
    // other live lease, and a slot's capacity monotonically tracks the
    // largest request it has ever served.
    std::vector<std::vector<T>> buffers;

    std::span<T> lease(std::size_t slot, std::size_t n) {
      if (slot >= buffers.size()) buffers.resize(slot + 1);
      std::vector<T>& buf = buffers[slot];
      if (buf.size() < n) buf.resize(n);
      return {buf.data(), n};
    }
    std::span<T> grow(std::size_t live, std::span<T> lease, std::size_t n);
    [[nodiscard]] std::size_t bytes() const noexcept {
      std::size_t total = 0;
      for (const auto& b : buffers) total += b.capacity() * sizeof(T);
      return total;
    }
  };

  Pool<double> pool_d_;
  Pool<std::uint32_t> pool_u32_;
  Pool<std::uint64_t> pool_u64_;
  Pool<prob::NormalMoments> pool_m_;
  Pool<int> pool_i_;
  Pool<prob::Atom> pool_a_;
  Frame::Cursors cursors_;
};

}  // namespace expmk::exp
