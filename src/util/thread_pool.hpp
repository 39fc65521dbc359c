// util/thread_pool.hpp
//
// A small fixed-size thread pool used by the Monte-Carlo engine to spread
// independent trial batches over hardware threads.
//
// Design notes (C++ Core Guidelines): the pool owns its threads (RAII,
// CP.23-style joining destructor), tasks are type-erased move-only
// callables, and submission returns a std::future so callers can propagate
// exceptions from worker threads instead of losing them.

#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <future>
#include <mutex>
#include <queue>
#include <thread>
#include <type_traits>
#include <vector>

namespace expmk::util {

/// Fixed-size pool of worker threads executing submitted callables FIFO.
///
/// The destructor drains the queue: tasks already submitted are executed
/// before the workers join, so `parallel_for` style fan-outs may simply let
/// the pool go out of scope after collecting futures.
class ThreadPool {
 public:
  /// Creates `n` workers; `n == 0` is promoted to 1 so the pool is always
  /// usable (on single-core hosts hardware_concurrency() may report 0).
  explicit ThreadPool(std::size_t n = std::thread::hardware_concurrency());

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Joins all workers after finishing every queued task.
  ~ThreadPool();

  /// Number of worker threads.
  [[nodiscard]] std::size_t size() const noexcept { return workers_.size(); }

  /// Submits a callable; the returned future yields its result (or rethrows
  /// the exception the callable raised).
  template <typename F>
  auto submit(F&& f) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(f));
    std::future<R> fut = task->get_future();
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      queue_.emplace([task]() { (*task)(); });
    }
    cv_.notify_one();
    return fut;
  }

  /// Runs `body(chunk_index)` for chunk_index in [0, chunks) across the
  /// pool and blocks until all chunks finish. Exceptions from any chunk are
  /// rethrown (the first one encountered).
  void parallel_for_chunks(std::size_t chunks,
                           const std::function<void(std::size_t)>& body);

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stopping_ = false;
};

/// Resolves a configured thread count: 0 means hardware concurrency
/// (at least 1).
[[nodiscard]] std::size_t resolve_threads(std::size_t threads) noexcept;

/// Runs `body(c)` for every c in [0, chunks): inline on the calling
/// thread, in order, when `workers` <= 1 or there is at most one chunk —
/// no pool, no thread spawn, no per-chunk submission — else across a
/// fresh ThreadPool of min(workers, chunks) threads (parallel_for_chunks).
/// Bodies must write only chunk-private state. Exceptions propagate.
void for_each_chunk(std::size_t workers, std::size_t chunks,
                    const std::function<void(std::size_t)>& body);

}  // namespace expmk::util
