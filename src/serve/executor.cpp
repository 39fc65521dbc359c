#include "serve/executor.hpp"

#include "exp/workspace.hpp"
#include "util/thread_pool.hpp"

namespace expmk::serve {

RequestExecutor::RequestExecutor(const ExecutorConfig& config) {
  const std::size_t n = util::resolve_threads(config.eval_threads);
  workers_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

RequestExecutor::~RequestExecutor() {
  {
    const std::lock_guard<std::mutex> lock(m_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void RequestExecutor::submit(
    std::shared_ptr<const scenario::Scenario> scenario,
    const exp::Evaluator& evaluator, exp::EvalOptions options,
    Callback callback) {
  options.threads = 1;  // parallelism comes from the workers
  depth_.fetch_add(1, std::memory_order_relaxed);
  {
    const std::lock_guard<std::mutex> lock(m_);
    ++stats_.submitted;
    queue_.push_back({std::move(scenario), &evaluator, options,
                      std::move(callback)});
  }
  cv_.notify_one();
}

void RequestExecutor::worker_loop() {
  // This worker's pooled scratch: every analytic request after its first
  // leases warm arenas.
  exp::Workspace& ws = exp::Workspace::local();
  std::unique_lock<std::mutex> lock(m_);
  for (;;) {
    cv_.wait(lock, [&] { return stopping_ || !queue_.empty(); });
    if (queue_.empty()) return;  // stopping and drained
    Pending p = std::move(queue_.front());
    queue_.pop_front();
    ++stats_.flushes;
    lock.unlock();
    p.callback(p.evaluator->evaluate(*p.scenario, p.options, ws));
    p = Pending{};  // drop the scenario and callback state outside the lock
    depth_.fetch_sub(1, std::memory_order_relaxed);
    lock.lock();
    ++stats_.completed;
  }
}

ExecutorStats RequestExecutor::stats() const {
  const std::lock_guard<std::mutex> lock(m_);
  return stats_;
}

}  // namespace expmk::serve
