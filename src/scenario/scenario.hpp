// scenario/scenario.hpp
//
// The compile-once evaluation handle. The paper's protocol — and every
// serving workload built on this library — evaluates MANY methods on the
// SAME (DAG, failure-rate, retry-model) cell. Before this layer existed,
// each of the 13 evaluators re-derived the per-cell state on every call:
// the CSR view, the per-task e^{-lambda a_i} constants, the
// geometric-sampler log1p inverses, the mean weight and the failure-free
// critical path. `Scenario` hoists all of that into a single immutable
// object built once by `Scenario::compile(dag, FailureSpec, RetryModel)`
// and then shared — by const reference, across threads, for the lifetime
// of the cell — by every estimator entry point in the library (core::,
// mc::, normal::, sp::, sched::, exp::).
//
// One graph order: every per-task constant is stored once, in CSR
// position order (csr().order()[pos] is the Dag id at `pos`,
// csr().position()[id] the way back). Every sweep runs on the CSR view;
// a loop that must run in Dag id order reads the constants through
// csr().position().
//
// `FailureSpec` is the second half of the redesign: the silent-error rate
// is either the classic uniform lambda (core::FailureModel, Section III of
// the paper) or a per-task rate vector — the heterogeneous-error input
// that the scheduling-under-uncertainty literature (Malewicz; Lin &
// Rajaraman) treats as primary. All cached constants are per-task anyway
// (p_i = e^{-lambda_i a_i}), so most estimators handle heterogeneity for
// free; the few that cannot declare it via exp::Capabilities and are gated
// with supported == false, never a crash.
//
// Contract:
//  * Immutability. A compiled Scenario never changes; every accessor is
//    const and returns views into storage owned by the Scenario. It is
//    safe to share one instance across any number of threads without
//    synchronization (the MC engines do exactly that). The two lazy
//    caches — the SP decomposition and the module-law store — synchronize
//    internally and never change an answer.
//  * Lifetime. Views (the spans and references the accessors return)
//    must not outlive the Scenario. The Scenario owns a private COPY of
//    the Dag, so the caller's graph may die after compile().
//  * Move-only. A Scenario is a handle, not a value: copying one would
//    silently duplicate O(V + E) state, so copies are deleted. Wrap it in
//    a shared_ptr<const Scenario> to share ownership.

#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/failure_model.hpp"
#include "graph/csr.hpp"
#include "graph/dag.hpp"

namespace expmk::graph {
struct SpDecomposition;
}  // namespace expmk::graph

namespace expmk::scenario {

class LawStore;

/// The failure-rate input of a scenario: either one uniform exponential
/// rate for every task (the paper's model) or an explicit per-task rate
/// vector (heterogeneous silent errors). Validation of the rates against
/// a concrete DAG happens in Scenario::compile.
class FailureSpec {
 public:
  /// Uniform, failure-free (lambda == 0).
  FailureSpec() = default;

  /// Uniform rate taken from the classic model (implicit on purpose, so
  /// `Scenario::compile(g, core::calibrate(g, pfail))` reads naturally).
  FailureSpec(const core::FailureModel& model) : lambda_(model.lambda) {}

  /// Uniform rate `lambda` (errors per second of execution).
  [[nodiscard]] static FailureSpec uniform(double lambda) {
    return FailureSpec(core::FailureModel{lambda});
  }

  /// Heterogeneous per-task rates; rates[i] is task i's lambda_i. The
  /// vector size must match the DAG handed to Scenario::compile.
  [[nodiscard]] static FailureSpec per_task(std::vector<double> rates);

  [[nodiscard]] bool heterogeneous() const noexcept {
    return !rates_.empty();
  }

  /// The uniform rate; throws std::logic_error when heterogeneous —
  /// callers must check heterogeneous() (or use Scenario::rates_csr(),
  /// which is always valid).
  [[nodiscard]] double uniform_lambda() const;

  /// The uniform rate as the classic model (same throwing contract).
  [[nodiscard]] core::FailureModel uniform_model() const {
    return core::FailureModel{uniform_lambda()};
  }

  /// Per-task vector; empty when uniform.
  [[nodiscard]] const std::vector<double>& per_task_rates() const noexcept {
    return rates_;
  }

 private:
  double lambda_ = 0.0;
  std::vector<double> rates_;
};

/// Immutable compile-once handle: one (DAG, failure rates, retry model)
/// cell plus everything every estimator would otherwise re-derive per
/// call. See the file comment for the immutability/lifetime contract.
class Scenario {
 public:
  /// Builds the handle; O(V + E) plus one exp/log1p pair per task — paid
  /// exactly once per cell instead of once per evaluator call. Throws
  /// std::invalid_argument on a cyclic graph, a rate-vector size mismatch,
  /// a negative/non-finite rate, or a negative/non-finite task weight
  /// (Dag::add_task rejects negatives but NaN/inf slip through its
  /// comparison — compile is the choke point every evaluator passes, so a
  /// poisoned weight fails HERE instead of silently corrupting every
  /// estimate downstream).
  [[nodiscard]] static Scenario compile(
      const graph::Dag& dag, FailureSpec failure,
      core::RetryModel retry = core::RetryModel::TwoState);

  /// Convenience: Section V-C calibration (pfail on the mean task weight)
  /// straight to a compiled scenario.
  [[nodiscard]] static Scenario calibrated(
      const graph::Dag& dag, double pfail,
      core::RetryModel retry = core::RetryModel::TwoState);

  Scenario(Scenario&&) noexcept;
  Scenario& operator=(Scenario&&) noexcept;
  Scenario(const Scenario&) = delete;
  Scenario& operator=(const Scenario&) = delete;
  ~Scenario();

  /// Total Scenario::compile calls in this process — the metrics hook the
  /// compile-once contract is pinned with (tests/test_scenario.cpp asserts
  /// a sweep row compiles one scenario per cell).
  [[nodiscard]] static std::uint64_t compiled_count() noexcept;

  /// Total patch()/with_failure() clones in this process — the serving
  /// layer's "patched instead of recompiled" metrics hook.
  [[nodiscard]] static std::uint64_t patched_count() noexcept;

  // ------------------------------------------------- incremental patching
  /// Clones this handle with `tasks[j]` given rate `new_rates[j]` and/or
  /// weight `new_weights[j]` (either span may be empty to leave that
  /// dimension untouched; a non-empty span must match tasks.size()).
  /// The clone SHARES the immutable graph structure (Dag, CSR adjacency,
  /// SP-decomposition cache) with this scenario, starts an empty law
  /// store of its own (see law_store()), and re-derives only
  /// what the patch invalidates: the per-task exp/log constants of the
  /// patched tasks, and — for weight patches — the failure-free finish
  /// times of the patched tasks' descendant cone (value-based dirty
  /// propagation; an absorbed change stops the wave). Every derived value
  /// is bit-identical to a fresh compile() of the patched inputs: rates
  /// whose bits are unchanged keep their cached constants, and recomputed
  /// entries use compile's exact expressions.
  /// Throws like compile on invalid ids, rates, or weights.
  [[nodiscard]] Scenario patch(std::span<const graph::TaskId> tasks,
                               std::span<const double> new_rates,
                               std::span<const double> new_weights = {}) const;

  /// Clones this handle under a wholly new FailureSpec (same graph, same
  /// retry model) — the serving layer's patch-on-miss entry point, where
  /// the request carries a full spec rather than a task diff. Per-task
  /// constants are recomputed only where the rate bits actually changed.
  [[nodiscard]] Scenario with_failure(FailureSpec failure) const;

  // ------------------------------------------------------------ identity
  [[nodiscard]] const graph::Dag& dag() const noexcept { return *dag_; }
  [[nodiscard]] const graph::CsrDag& csr() const noexcept { return *csr_; }
  [[nodiscard]] std::size_t task_count() const noexcept {
    return dag_->task_count();
  }
  [[nodiscard]] core::RetryModel retry() const noexcept { return retry_; }
  [[nodiscard]] const FailureSpec& failure() const noexcept {
    return failure_;
  }
  [[nodiscard]] bool heterogeneous() const noexcept {
    return failure_.heterogeneous();
  }
  /// True when no task can ever fail (all rates are zero).
  [[nodiscard]] bool failure_free() const noexcept { return failure_free_; }
  /// Uniform-lambda view; throws std::logic_error when heterogeneous.
  [[nodiscard]] core::FailureModel uniform_model() const {
    return failure_.uniform_model();
  }

  // -------------------------------------- lazily built structural cache
  /// Series-parallel modular decomposition for hierarchical evaluation.
  /// Depends only on the adjacency structure, is built on first use
  /// (thread-safe), and is SHARED by every patch()/with_failure() clone —
  /// a patched scenario never re-derives it.
  [[nodiscard]] const graph::SpDecomposition& sp_decomposition() const;

  /// This scenario's store of hierarchical module laws
  /// (scenario/law_store.hpp): a thread-safe cache that exp::hier fills
  /// and reads, owned by this scenario alone — a patch()/with_failure()
  /// clone starts an empty one and finds the laws it shares with this
  /// scenario by content. Its laws are released with the scenario.
  [[nodiscard]] LawStore& law_store() const noexcept { return *laws_; }

  /// CSR positions of the tasks with no successor, listed in ascending
  /// Dag id order (the order the Normal-family exit folds are pinned
  /// with). Cached so that those folds run allocation-free.
  [[nodiscard]] std::span<const std::uint32_t> exits() const noexcept {
    return exits_;
  }

  // ------------------------------------------- cached per-task constants
  // All indexed by CSR position (csr().order() / csr().position()
  // translate to and from Dag ids); every span has task_count() entries.

  /// Task weights in position order (== csr().weights()).
  [[nodiscard]] std::span<const double> weights_csr() const noexcept {
    return csr_->weights();
  }
  /// Failure-free finish time per CSR position (longest path ending at
  /// that vertex) — the critical-path DP's full output, cached so that
  /// patch() can repair just the affected cone.
  [[nodiscard]] std::span<const double> finish_csr() const noexcept {
    return finish_csr_;
  }
  /// lambda_i in position order (the uniform rate everywhere when
  /// uniform).
  [[nodiscard]] std::span<const double> rates_csr() const noexcept {
    return rates_csr_;
  }
  /// e^{-lambda_i a_i} in position order.
  [[nodiscard]] std::span<const double> p_success_csr() const noexcept {
    return p_success_csr_;
  }
  /// 1 - p_i in position order — the sampler's fast-path threshold.
  [[nodiscard]] std::span<const double> q_fail_csr() const noexcept {
    return q_fail_csr_;
  }
  /// 1 / log1p(-p_i) in position order — the geometric-sampler inversion
  /// constant (only meaningful where q_fail > 0; see mc/trial.hpp).
  [[nodiscard]] std::span<const double> inv_log_q_csr() const noexcept {
    return inv_log_q_csr_;
  }

  // ------------------------------------------------------ cached scalars
  /// d(G): the failure-free critical-path length.
  [[nodiscard]] double critical_path() const noexcept {
    return critical_path_;
  }
  /// Mean task weight a-bar (the calibration denominator).
  [[nodiscard]] double mean_weight() const noexcept { return mean_weight_; }
  /// A = sum_i a_i.
  [[nodiscard]] double total_weight() const noexcept {
    return total_weight_;
  }

 private:
  struct DerivedCaches;  // once-guarded lazy structural caches (.cpp)

  Scenario() = default;  // patch()/with_failure() build up from empty
  Scenario(graph::Dag dag, FailureSpec failure, core::RetryModel retry);

  /// Copies every member (structure members by shared_ptr) — the starting
  /// point of a patch clone.
  [[nodiscard]] Scenario clone_for_patch() const;
  /// Recomputes the per-task constants of task `i` from its weight and
  /// `lambda` using compile's exact expressions.
  void rederive_task(graph::TaskId i, double lambda);
  /// Value-based dirty propagation of finish_csr_ from the patched
  /// positions; updates critical_path_.
  void repair_finish_cone(std::span<const graph::TaskId> tasks);

  // The graph structure is shared (never copied) between a scenario and
  // its patch clones; shared_ptr<const ...> keeps the immutability
  // contract — nobody can mutate through the handle.
  std::shared_ptr<const graph::Dag> dag_;
  std::shared_ptr<const graph::CsrDag> csr_;
  FailureSpec failure_;
  core::RetryModel retry_ = core::RetryModel::TwoState;
  bool failure_free_ = true;

  std::vector<std::uint32_t> exits_;  // positions, ascending Dag id
  std::vector<double> rates_csr_;
  std::vector<double> p_success_csr_;
  std::vector<double> q_fail_csr_;
  std::vector<double> inv_log_q_csr_;
  std::vector<double> finish_csr_;

  double critical_path_ = 0.0;
  double mean_weight_ = 0.0;
  double total_weight_ = 0.0;

  // Lazy structure-derived cache, shared across patch clones. The holder
  // is heap-allocated so Scenario stays movable (std::once_flag is not).
  std::shared_ptr<DerivedCaches> derived_;
  // Module-law cache, private to this scenario (never copied to a clone);
  // heap-held for the same reason (std::mutex is not movable).
  std::unique_ptr<LawStore> laws_;
};

}  // namespace expmk::scenario
