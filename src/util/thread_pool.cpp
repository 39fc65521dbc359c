#include "util/thread_pool.hpp"

#include <algorithm>
#include <exception>

namespace expmk::util {

ThreadPool::ThreadPool(std::size_t n) {
  if (n == 0) n = 1;
  workers_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) {
    if (w.joinable()) w.join();
  }
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) {
        if (stopping_) return;
        continue;
      }
      task = std::move(queue_.front());
      queue_.pop();
    }
    task();
  }
}

void ThreadPool::parallel_for_chunks(
    std::size_t chunks, const std::function<void(std::size_t)>& body) {
  std::vector<std::future<void>> futures;
  futures.reserve(chunks);
  for (std::size_t c = 0; c < chunks; ++c) {
    futures.push_back(submit([&body, c] { body(c); }));
  }
  std::exception_ptr first_error;
  for (auto& f : futures) {
    try {
      f.get();
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  }
  if (first_error) std::rethrow_exception(first_error);
}

std::size_t resolve_threads(std::size_t threads) noexcept {
  if (threads != 0) return threads;
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

void for_each_chunk(std::size_t workers, std::size_t chunks,
                    const std::function<void(std::size_t)>& body) {
  if (workers <= 1 || chunks <= 1) {
    for (std::size_t c = 0; c < chunks; ++c) body(c);
    return;
  }
  ThreadPool pool(std::min(workers, chunks));
  pool.parallel_for_chunks(chunks, body);
}

}  // namespace expmk::util
