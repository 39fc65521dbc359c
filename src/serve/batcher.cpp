#include "serve/batcher.hpp"

#include <algorithm>
#include <chrono>
#include <span>

namespace expmk::serve {

BatchExecutor::BatchExecutor(const BatchConfig& config,
                             const exp::EvaluatorRegistry& registry)
    : config_(config),
      registry_(registry),
      flusher_([this] { flusher_loop(); }) {
  if (config_.max_batch == 0) config_.max_batch = 1;
}

BatchExecutor::~BatchExecutor() {
  {
    const std::lock_guard<std::mutex> lock(m_);
    stopping_ = true;
  }
  cv_.notify_all();
  flusher_.join();
}

void BatchExecutor::submit(
    std::shared_ptr<const scenario::Scenario> scenario,
    exp::EvalRequest request, Callback callback) {
  Pending p;
  p.scenario = std::move(scenario);
  p.request = std::move(request);
  p.callback = std::move(callback);
  depth_.fetch_add(1, std::memory_order_relaxed);
  {
    const std::lock_guard<std::mutex> lock(m_);
    ++stats_.submitted;
    queue_.push_back(std::move(p));
  }
  cv_.notify_one();
}

void BatchExecutor::flusher_loop() {
  std::unique_lock<std::mutex> lock(m_);
  for (;;) {
    cv_.wait(lock, [&] { return stopping_ || !queue_.empty(); });
    if (queue_.empty()) {
      if (stopping_) return;  // drained: every callback has fired
      continue;
    }
    // Batch window: flush on size, or when the OLDEST queued request has
    // aged past the deadline (a deadline per batch, not per request — a
    // light stream pays at most deadline_us of added latency).
    while (!stopping_ && queue_.size() < config_.max_batch) {
      const double age_us = queue_.front().queued_at.seconds() * 1e6;
      const double remaining_us = config_.deadline_us - age_us;
      if (remaining_us <= 0.0) break;
      cv_.wait_for(lock, std::chrono::microseconds(
                             static_cast<long long>(remaining_us) + 1));
    }
    std::vector<Pending> batch;
    const std::size_t take = std::min(queue_.size(), config_.max_batch);
    batch.reserve(take);
    for (std::size_t i = 0; i < take; ++i) {
      batch.push_back(std::move(queue_.front()));
      queue_.pop_front();
    }
    ++stats_.flushes;
    stats_.max_batch_seen =
        std::max<std::uint64_t>(stats_.max_batch_seen, batch.size());
    lock.unlock();
    flush(std::move(batch));
    lock.lock();
  }
}

void BatchExecutor::flush(std::vector<Pending> batch) {
  // Group by scenario handle in FIRST-APPEARANCE order: stable across
  // runs (no pointer ordering), and irrelevant to results — every
  // request carries a final seed, so grouping affects only scheduling.
  std::vector<const scenario::Scenario*> group_keys;
  std::vector<std::vector<std::size_t>> groups;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const scenario::Scenario* key = batch[i].scenario.get();
    std::size_t g = 0;
    for (; g < group_keys.size(); ++g) {
      if (group_keys[g] == key) break;
    }
    if (g == group_keys.size()) {
      group_keys.push_back(key);
      groups.emplace_back();
    }
    groups[g].push_back(i);
  }

  std::vector<exp::EvalRequest> requests;
  for (std::size_t g = 0; g < groups.size(); ++g) {
    requests.clear();
    requests.reserve(groups[g].size());
    for (const std::size_t i : groups[g]) {
      requests.push_back(std::move(batch[i].request));
    }
    std::vector<exp::EvalResult> results = exp::evaluate_many(
        *group_keys[g], std::span<const exp::EvalRequest>(requests),
        config_.eval_threads, registry_);
    for (std::size_t j = 0; j < groups[g].size(); ++j) {
      const std::size_t i = groups[g][j];
      batch[i].callback(std::move(results[j]));
      depth_.fetch_sub(1, std::memory_order_relaxed);
      {
        const std::lock_guard<std::mutex> lock(m_);
        ++stats_.completed;
      }
    }
  }
}

BatchStats BatchExecutor::stats() const {
  const std::lock_guard<std::mutex> lock(m_);
  return stats_;
}

}  // namespace expmk::serve
