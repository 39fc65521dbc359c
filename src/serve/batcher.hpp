// serve/batcher.hpp
//
// The batching executor between the wire and `exp::evaluate_many`.
// Requests accumulate in a queue and are flushed for evaluation when
// EITHER the batch reaches `max_batch` requests OR the oldest queued
// request has waited `deadline_us` — classic size-or-deadline
// batching: full batches amortize the fan-out under load, the deadline
// bounds added latency when traffic is light.
//
// Determinism contract: every submitted request carries a FINAL seed
// (exp::EvalRequest::seed_final — the engine derives it from the
// per-connection chain derive_seed(request seed, connection index)
// BEFORE submission), so a request's result is a pure function of
// (scenario, method, options) — bitwise independent of which flush it
// landed in, its position within the flush, and the worker thread count
// (tests/test_serve.cpp pins batch sizes {1, 8, 64} x threads {1, 2, 7}).
//
// One flush may contain requests against different scenarios: the flush
// groups them by scenario handle in first-appearance order (stable, no
// pointer ordering) and runs one evaluate_many per group on
// `eval_threads` workers: the flusher thread itself plus helpers from the
// process-wide pool behind util::for_each_chunk, so no flush creates or
// joins a thread.
//
// Completion is callback-based (the server writes the response frame
// from the callback); callbacks run on the flusher thread, in batch
// order. queue_depth() counts submitted-but-not-completed requests —
// the load-shedding pressure signal.

#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "exp/evaluate_many.hpp"
#include "exp/evaluator.hpp"
#include "scenario/scenario.hpp"
#include "util/timer.hpp"

namespace expmk::serve {

struct BatchConfig {
  std::size_t max_batch = 64;     ///< flush at this many queued requests
  double deadline_us = 250.0;     ///< ... or when the oldest waited this long
  std::size_t eval_threads = 0;   ///< workers per flush (0 = hardware)
};

/// Counters exposed through the STATS frame.
struct BatchStats {
  std::uint64_t submitted = 0;      ///< requests accepted
  std::uint64_t completed = 0;      ///< callbacks fired
  std::uint64_t flushes = 0;        ///< batches executed
  std::uint64_t max_batch_seen = 0; ///< largest single flush
};

/// Size-or-deadline batcher; each flush evaluates on the flusher thread
/// plus up to `eval_threads` - 1 helpers of the process-wide pool.
/// submit() is thread-safe; the destructor drains every queued request
/// (callbacks still fire) before joining.
class BatchExecutor {
 public:
  using Callback = std::function<void(exp::EvalResult&&)>;

  explicit BatchExecutor(
      const BatchConfig& config,
      const exp::EvaluatorRegistry& registry =
          exp::EvaluatorRegistry::builtin());
  ~BatchExecutor();

  BatchExecutor(const BatchExecutor&) = delete;
  BatchExecutor& operator=(const BatchExecutor&) = delete;

  /// Enqueues one request. `request.seed_final` should be true (see the
  /// file comment); `callback` fires exactly once, on the flusher
  /// thread. The scenario handle is shared until the callback returns.
  void submit(std::shared_ptr<const scenario::Scenario> scenario,
              exp::EvalRequest request, Callback callback);

  /// Submitted-but-not-completed requests (queued + in the current
  /// flush) — the shed policy's queue-depth signal.
  [[nodiscard]] std::size_t queue_depth() const noexcept {
    return depth_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] BatchStats stats() const;

  [[nodiscard]] const BatchConfig& config() const noexcept {
    return config_;
  }

 private:
  struct Pending {
    std::shared_ptr<const scenario::Scenario> scenario;
    exp::EvalRequest request;
    Callback callback;
    util::Timer queued_at;  // age drives the deadline flush
  };

  void flusher_loop();
  void flush(std::vector<Pending> batch);

  BatchConfig config_;
  const exp::EvaluatorRegistry& registry_;

  mutable std::mutex m_;
  std::condition_variable cv_;
  std::deque<Pending> queue_;
  bool stopping_ = false;
  std::atomic<std::size_t> depth_{0};

  BatchStats stats_;
  std::thread flusher_;  // last member: joins while the rest is alive
};

}  // namespace expmk::serve
