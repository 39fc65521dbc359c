// serve/executor.hpp
//
// The request executor between the wire and the evaluators: one FIFO
// queue and `eval_threads` long-lived worker threads. Each worker pops
// one request, evaluates it single-threaded on its own pooled
// exp::Workspace::local(), fires that request's callback at once, and
// goes back for the next. A light request therefore waits only for a
// free worker, never for the rest of a batch or for a heavy request
// queued ahead of it on another worker.
//
// Completion order follows evaluation cost, not submission order:
// callbacks fire on whichever worker ran the request, as soon as it
// returns. The wire protocol matches responses by `id`.
//
// Determinism contract: every submitted request carries its FINAL
// options (the engine derives the seed from the per-connection chain
// derive_seed(request seed, connection index) before submission), so a
// request's result is a pure function of (scenario, evaluator, options)
// — bitwise independent of the worker that ran it, of what else was
// queued and of the worker count (tests/test_serve.cpp pins workers
// {1, 2, 7}).
//
// queue_depth() counts submitted-but-not-completed requests — the
// load-shedding pressure signal.

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

#include "exp/evaluator.hpp"
#include "scenario/scenario.hpp"

namespace expmk::serve {

struct ExecutorConfig {
  std::size_t eval_threads = 0;  ///< worker threads (0 = hardware)
};

/// Counters exposed through the STATS frame's `batch` object.
struct ExecutorStats {
  std::uint64_t submitted = 0;  ///< requests accepted
  std::uint64_t completed = 0;  ///< callbacks fired
  std::uint64_t flushes = 0;    ///< dispatches to a worker: one per request
};

/// FIFO queue served by a fixed set of worker threads. submit() is
/// thread-safe; the destructor lets the workers drain every queued
/// request (callbacks still fire) before joining them.
class RequestExecutor {
 public:
  using Callback = std::function<void(exp::EvalResult&&)>;

  explicit RequestExecutor(const ExecutorConfig& config);
  ~RequestExecutor();

  RequestExecutor(const RequestExecutor&) = delete;
  RequestExecutor& operator=(const RequestExecutor&) = delete;

  /// Enqueues one evaluation of `evaluator` (which must outlive the
  /// executor) on `scenario` under `options`, run with options.threads
  /// forced to 1. `callback` fires exactly once, on a worker thread. The
  /// scenario handle is shared until the callback returns.
  void submit(std::shared_ptr<const scenario::Scenario> scenario,
              const exp::Evaluator& evaluator, exp::EvalOptions options,
              Callback callback);

  /// Submitted-but-not-completed requests (queued + running) — the shed
  /// policy's queue-depth signal.
  [[nodiscard]] std::size_t queue_depth() const noexcept {
    return depth_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] ExecutorStats stats() const;

 private:
  struct Pending {
    std::shared_ptr<const scenario::Scenario> scenario;
    const exp::Evaluator* evaluator = nullptr;
    exp::EvalOptions options;
    Callback callback;
  };

  void worker_loop();

  mutable std::mutex m_;
  std::condition_variable cv_;
  std::deque<Pending> queue_;
  bool stopping_ = false;
  std::atomic<std::size_t> depth_{0};

  ExecutorStats stats_;
  std::vector<std::thread> workers_;  // last member: joins while the rest
                                      // is alive
};

}  // namespace expmk::serve
