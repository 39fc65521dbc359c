#include "scenario/scenario.hpp"

#include <atomic>
#include <cmath>
#include <mutex>
#include <stdexcept>
#include <utility>

#include "graph/sp_tree.hpp"

namespace expmk::scenario {

namespace {

/// Process-wide compile counter (relaxed: a metrics hook, not a fence).
std::atomic<std::uint64_t> g_compiled{0};
/// Process-wide patch counter — same role for the incremental path.
std::atomic<std::uint64_t> g_patched{0};

}  // namespace

/// Structure-derived caches built on first use and shared by patch
/// clones. Heap-held because std::once_flag is neither movable nor
/// copyable but Scenario must stay movable.
struct Scenario::DerivedCaches {
  std::once_flag sp_once;
  std::unique_ptr<const graph::SpDecomposition> sp;
};

FailureSpec FailureSpec::per_task(std::vector<double> rates) {
  FailureSpec spec;
  spec.rates_ = std::move(rates);
  if (spec.rates_.empty()) {
    throw std::invalid_argument(
        "FailureSpec::per_task: empty rate vector (use uniform() for the "
        "single-rate model)");
  }
  return spec;
}

double FailureSpec::uniform_lambda() const {
  if (heterogeneous()) {
    throw std::logic_error(
        "FailureSpec: uniform_lambda() on a heterogeneous spec — check "
        "heterogeneous() or use Scenario::rates_csr()");
  }
  return lambda_;
}

Scenario Scenario::compile(const graph::Dag& dag, FailureSpec failure,
                           core::RetryModel retry) {
  return Scenario(dag, std::move(failure), retry);
}

Scenario Scenario::calibrated(const graph::Dag& dag, double pfail,
                              core::RetryModel retry) {
  return compile(dag, FailureSpec(core::calibrate(dag, pfail)), retry);
}

std::uint64_t Scenario::compiled_count() noexcept {
  return g_compiled.load(std::memory_order_relaxed);
}

std::uint64_t Scenario::patched_count() noexcept {
  return g_patched.load(std::memory_order_relaxed);
}

Scenario::Scenario(graph::Dag dag, FailureSpec failure,
                   core::RetryModel retry)
    : dag_(std::make_shared<const graph::Dag>(std::move(dag))),
      csr_(std::make_shared<const graph::CsrDag>(*dag_)),
      failure_(std::move(failure)),
      retry_(retry),
      derived_(std::make_shared<DerivedCaches>()) {
  const std::size_t n = dag_->task_count();

  // Validate the task weights before deriving anything from them: the Dag
  // API rejects negatives but `weight < 0.0` is false for NaN, so a NaN
  // (or inf) weight would otherwise flow silently into every method's
  // p_success/duration arithmetic. Compile is the one choke point every
  // evaluator passes.
  for (graph::TaskId i = 0; i < n; ++i) {
    const double a = dag_->weight(i);
    if (!(a >= 0.0) || !std::isfinite(a)) {
      throw std::invalid_argument(
          "Scenario: task weights must be finite and >= 0 (task " +
          std::to_string(i) + ")");
    }
  }

  // Validate the spec against this DAG before deriving anything from it.
  if (failure_.heterogeneous()) {
    const auto& rates = failure_.per_task_rates();
    if (rates.size() != n) {
      throw std::invalid_argument(
          "Scenario: per-task rate vector size " +
          std::to_string(rates.size()) + " != task count " +
          std::to_string(n));
    }
    for (const double r : rates) {
      if (!(r >= 0.0) || !std::isfinite(r)) {
        throw std::invalid_argument(
            "Scenario: per-task rates must be finite and >= 0");
      }
    }
  } else if (!(failure_.uniform_lambda() >= 0.0) ||
             !std::isfinite(failure_.uniform_lambda())) {
    // Mirrors FailureModel::p_success's negative-lambda rejection, but
    // at compile time instead of deep inside the first estimator call.
    throw std::invalid_argument("Scenario: lambda must be finite and >= 0");
  }

  // Per-task constants, in CSR position order — the layout every sweep
  // and mc/trial.hpp's fused kernel consume directly (see that header for
  // the fast/slow path split the sampler arrays encode).
  rates_csr_.resize(n);
  p_success_csr_.resize(n);
  q_fail_csr_.resize(n);
  inv_log_q_csr_.resize(n);
  failure_free_ = true;
  for (graph::TaskId i = 0; i < n; ++i) {
    const double lambda = failure_.heterogeneous()
                              ? failure_.per_task_rates()[i]
                              : failure_.uniform_lambda();
    rederive_task(i, lambda);
    failure_free_ = failure_free_ && lambda <= 0.0;
  }

  for (graph::TaskId i = 0; i < n; ++i) {
    if (dag_->successors(i).empty()) exits_.push_back(csr_->position_of(i));
  }

  finish_csr_.resize(n);
  critical_path_ =
      n == 0 ? 0.0
             : graph::critical_path_length(*csr_, csr_->weights(),
                                           finish_csr_);
  mean_weight_ = n == 0 ? 0.0 : dag_->mean_weight();
  total_weight_ = dag_->total_weight();

  g_compiled.fetch_add(1, std::memory_order_relaxed);
}

// ------------------------------------------------------------- patching

Scenario Scenario::clone_for_patch() const {
  Scenario out;
  out.dag_ = dag_;
  out.csr_ = csr_;
  out.failure_ = failure_;
  out.retry_ = retry_;
  out.failure_free_ = failure_free_;
  out.exits_ = exits_;
  out.rates_csr_ = rates_csr_;
  out.p_success_csr_ = p_success_csr_;
  out.q_fail_csr_ = q_fail_csr_;
  out.inv_log_q_csr_ = inv_log_q_csr_;
  out.finish_csr_ = finish_csr_;
  out.critical_path_ = critical_path_;
  out.mean_weight_ = mean_weight_;
  out.total_weight_ = total_weight_;
  out.derived_ = derived_;  // structure-only: valid for every patch clone
  return out;
}

void Scenario::rederive_task(graph::TaskId i, double lambda) {
  // The expressions of FailureModel::p_success, so the uniform path stays
  // bit-identical to the pre-Scenario code; a patch recomputing them from
  // identical inputs yields identical bits (the patch == compile
  // contract).
  const std::uint32_t pos = csr_->position_of(i);
  const double p = std::exp(-lambda * csr_->weights()[pos]);
  rates_csr_[pos] = lambda;
  p_success_csr_[pos] = p;
  // q_fail <= 0 (p >= 1) makes the sampler fast path unconditional.
  q_fail_csr_[pos] = 1.0 - p;
  // Only read on the slow path, where q_fail > 0 implies p < 1 and the
  // log is finite and negative (p == 0 artifacts are absorbed by the
  // sampler's execution cap).
  inv_log_q_csr_[pos] = 1.0 / std::log1p(-p);
}

void Scenario::repair_finish_cone(std::span<const graph::TaskId> tasks) {
  const std::size_t n = task_count();
  std::vector<char> dirty(n, 0);
  for (const graph::TaskId i : tasks) dirty[csr_->position_of(i)] = 1;

  // Value-based wave in position (= topological) order: recompute a dirty
  // vertex from its predecessors' finish times; only an actual change
  // propagates to the successors. The per-vertex expression and the
  // predecessor edge order are the ones graph::critical_path_length uses,
  // so surviving values are bit-identical to a full recompute.
  const auto off = csr_->pred_offsets();
  const auto pred = csr_->pred_index();
  const auto w = csr_->weights();
  for (std::uint32_t v = 0; v < n; ++v) {
    if (!dirty[v]) continue;
    double start = 0.0;
    for (std::uint32_t e = off[v]; e < off[v + 1]; ++e) {
      const double f = finish_csr_[pred[e]];
      if (f > start) start = f;
    }
    const double fv = start + w[v];
    if (fv == finish_csr_[v]) continue;  // absorbed: the wave stops here
    finish_csr_[v] = fv;
    for (const std::uint32_t s : csr_->succs(v)) dirty[s] = 1;
  }

  double best = 0.0;
  for (const double f : finish_csr_) {
    if (f > best) best = f;
  }
  critical_path_ = best;
}

Scenario Scenario::with_failure(FailureSpec failure) const {
  const std::size_t n = task_count();
  if (failure.heterogeneous()) {
    const auto& rates = failure.per_task_rates();
    if (rates.size() != n) {
      throw std::invalid_argument(
          "Scenario::with_failure: per-task rate vector size " +
          std::to_string(rates.size()) + " != task count " +
          std::to_string(n));
    }
    for (const double r : rates) {
      if (!(r >= 0.0) || !std::isfinite(r)) {
        throw std::invalid_argument(
            "Scenario::with_failure: rates must be finite and >= 0");
      }
    }
  } else if (!(failure.uniform_lambda() >= 0.0) ||
             !std::isfinite(failure.uniform_lambda())) {
    throw std::invalid_argument(
        "Scenario::with_failure: lambda must be finite and >= 0");
  }

  Scenario out = clone_for_patch();
  out.failure_ = std::move(failure);
  out.failure_free_ = true;
  const std::span<const std::uint32_t> position = csr_->position();
  for (graph::TaskId i = 0; i < n; ++i) {
    const double lambda = out.failure_.heterogeneous()
                              ? out.failure_.per_task_rates()[i]
                              : out.failure_.uniform_lambda();
    // An unchanged rate keeps its cached constants — recomputing them
    // from the same inputs would reproduce the same bits, so skipping
    // the exp/log1p pair is free.
    if (lambda != out.rates_csr_[position[i]]) out.rederive_task(i, lambda);
    out.failure_free_ = out.failure_free_ && lambda <= 0.0;
  }
  g_patched.fetch_add(1, std::memory_order_relaxed);
  return out;
}

Scenario Scenario::patch(std::span<const graph::TaskId> tasks,
                         std::span<const double> new_rates,
                         std::span<const double> new_weights) const {
  const std::size_t n = task_count();
  const std::size_t k = tasks.size();
  if (new_rates.empty() && new_weights.empty()) {
    throw std::invalid_argument(
        "Scenario::patch: no new rates or weights given");
  }
  if ((!new_rates.empty() && new_rates.size() != k) ||
      (!new_weights.empty() && new_weights.size() != k)) {
    throw std::invalid_argument(
        "Scenario::patch: tasks/new_rates/new_weights size mismatch");
  }
  for (const graph::TaskId i : tasks) {
    if (i >= n) {
      throw std::out_of_range("Scenario::patch: invalid task id " +
                              std::to_string(i));
    }
  }
  for (const double r : new_rates) {
    if (!(r >= 0.0) || !std::isfinite(r)) {
      throw std::invalid_argument(
          "Scenario::patch: rates must be finite and >= 0");
    }
  }
  for (const double w : new_weights) {
    if (!(w >= 0.0) || !std::isfinite(w)) {
      throw std::invalid_argument(
          "Scenario::patch: task weights must be finite and >= 0");
    }
  }

  Scenario out = clone_for_patch();

  if (!new_weights.empty()) {
    // Weight patch: copy the Dag (set_weight needs mutation), rebuild the
    // CSR weight plane WITHOUT re-running Kahn (the adjacency — and hence
    // the topological renumbering — is unchanged), repair the finish cone.
    auto dag2 = std::make_shared<graph::Dag>(*dag_);
    for (std::size_t j = 0; j < k; ++j) {
      dag2->set_weight(tasks[j], new_weights[j]);
    }
    out.csr_ = std::make_shared<const graph::CsrDag>(*csr_, dag2->weights());
    out.dag_ = std::move(dag2);
    out.mean_weight_ = n == 0 ? 0.0 : out.dag_->mean_weight();
    out.total_weight_ = out.dag_->total_weight();
    out.repair_finish_cone(tasks);
  }

  if (!new_rates.empty()) {
    // The clone's spec must match what a fresh compile of the patched
    // inputs would carry: still uniform if every patched rate equals the
    // uniform lambda, per-task otherwise.
    bool still_uniform = !failure_.heterogeneous();
    if (still_uniform) {
      for (const double r : new_rates) {
        still_uniform = still_uniform && r == failure_.uniform_lambda();
      }
    }
    if (!still_uniform) {
      std::vector<double> rates(n);
      for (graph::TaskId i = 0; i < n; ++i) {
        rates[i] = out.rates_csr_[csr_->position()[i]];
      }
      for (std::size_t j = 0; j < k; ++j) rates[tasks[j]] = new_rates[j];
      out.failure_ = FailureSpec::per_task(std::move(rates));
    }
    for (std::size_t j = 0; j < k; ++j) {
      out.rederive_task(tasks[j], new_rates[j]);
    }
    out.failure_free_ = true;
    for (const double r : out.rates_csr_) {
      out.failure_free_ = out.failure_free_ && r <= 0.0;
    }
  } else {
    // Weight-only patch: rates unchanged, but p depends on the weights,
    // so the patched tasks' constants must be re-derived.
    for (const graph::TaskId i : tasks) {
      out.rederive_task(i, out.rates_csr_[csr_->position_of(i)]);
    }
  }

  g_patched.fetch_add(1, std::memory_order_relaxed);
  return out;
}

// ------------------------------------------- lazy structural caches

const graph::SpDecomposition& Scenario::sp_decomposition() const {
  std::call_once(derived_->sp_once, [&] {
    derived_->sp = std::make_unique<const graph::SpDecomposition>(
        graph::sp_collapse(*dag_));
  });
  return *derived_->sp;
}

}  // namespace expmk::scenario
