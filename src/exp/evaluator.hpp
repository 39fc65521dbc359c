// exp/evaluator.hpp
//
// The uniform evaluator interface over every expected-makespan method in
// the library, and the registry the experiment-sweep subsystem (sweep.hpp)
// and the expmk_sweep CLI are built on.
//
// The paper's whole point is the *comparison* — exact/SP evaluation vs.
// Dodin, the Normal family, the first/second-order approximations and
// Monte-Carlo, across DAG classes and failure rates. Each method lives in
// its own namespace with its own signature; an Evaluator wraps one method
// behind a single call
//
//     evaluate(scenario, options) -> EvalResult
//
// where `scenario` is the compile-once scenario::Scenario handle carrying
// the DAG, the (possibly per-task) failure rates, the retry model and all
// cached preprocessing — compiled ONCE per (DAG, rates, retry) cell and
// shared by every method evaluated on that cell — and every wrapped
// method is a `(Scenario, EvalOptions, Workspace, EvalResult)` kernel:
// its scratch is leased from an exp::Workspace, so steady-state repeated
// evaluation on a warm workspace performs ZERO heap allocations for the
// analytic methods — since the flat-distribution-engine refactor this
// includes sp and dodin, whose networks and atom arithmetic run entirely
// on leased arenas (MC trial buffers were already pooled). The
// workspace-less evaluate(scenario, options) overload leases from the
// calling thread's pooled Workspace::local(); both return bit-identical
// results. There is no graph-level entry: a caller holding a Dag
// compiles it once with scenario::Scenario::compile, and every library
// estimator has exactly one entry point, its (Scenario, Workspace)
// kernel (plus a `workers` fan-out variant for so and bounds).
//
// A Capabilities record states what the method can do (which retry
// models, how large a graph, uniform-only vs per-task rates, whether it
// is stochastic, and its documented accuracy contract). Capability
// violations and method-specific failures (a non-SP graph handed to the
// SP evaluator, a Dodin duplication blow-up) are reported as
// `supported == false` with a note, never as a crash — a sweep cell must
// not take down a 10,000-cell grid.

#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "exp/workspace.hpp"
#include "prob/discrete_distribution.hpp"
#include "scenario/scenario.hpp"

namespace expmk::exp {

/// Method-independent evaluation knobs. Each evaluator reads the subset it
/// understands and ignores the rest, so one options object parameterizes a
/// whole sweep row.
struct EvalOptions {
  std::uint64_t mc_trials = 100'000;  ///< mc / cmc trial count (>= 1)
  std::uint64_t seed = 0xE57;         ///< mc / cmc stream seed
  /// Worker threads *inside* one evaluation (0 = hardware concurrency).
  /// Honoured by mc, cmc and mc.hier (fixed chunk partitions), and by so
  /// and bounds.lower/bounds.upper on graphs of at least 4096 tasks (their
  /// fan-out variants; smaller graphs run the serial allocation-free
  /// kernels). Every one of them is bit-identical across thread counts,
  /// so this is a pure wall-clock knob; every other method ignores it.
  std::size_t threads = 0;
  bool mc_control_variate = false;    ///< mc: control-variate estimator
  std::size_t dodin_atoms = 256;      ///< dodin: atom budget per dist
  std::size_t sp_max_atoms = 0;       ///< sp: atom budget (0 = exact)
  int geometric_max_executions = 3;   ///< exact.geo: truncation depth
  /// Fill EvalResult::distribution when the method produces a makespan
  /// law (exact, dodin, sp). Off by default: distributions can be large.
  bool capture_distribution = false;
};

/// Outcome of one evaluation.
struct EvalResult {
  /// Expected-makespan estimate; NaN when !supported.
  double mean = std::numeric_limits<double>::quiet_NaN();
  /// Certified truncation envelope around `mean`: the same computation
  /// run with NO atom-cap truncation would produce a mean inside
  /// [mean_lo, mean_hi] (see prob/dist_kernels.hpp for the displacement
  /// math). Degenerate — lo == hi == mean exactly — whenever no
  /// truncation fired, which includes every method that never truncates;
  /// evaluate() fills the degenerate envelope for methods that do not set
  /// one. NaN when !supported. The envelope certifies the atom-budget
  /// error ONLY, never a method's own modeling bias or sampling noise.
  double mean_lo = std::numeric_limits<double>::quiet_NaN();
  double mean_hi = std::numeric_limits<double>::quiet_NaN();
  /// Standard error of `mean` for stochastic methods, 0 for deterministic
  /// ones.
  double std_error = 0.0;
  /// Approximate makespan distribution when the method computes one and
  /// EvalOptions::capture_distribution was set.
  std::optional<prob::DiscreteDistribution> distribution;
  /// Conditional-MC trials whose rejection loop hit the cap without
  /// drawing a failure (excluded from the conditional statistics; see
  /// mc/conditional.hpp). Zero for every other method.
  std::uint64_t censored_trials = 0;
  double seconds = 0.0;  ///< wall-clock spent inside the method
  /// False when the method cannot handle this scenario (graph size, retry
  /// model, per-task rates); `note` says why and `mean` is NaN.
  bool supported = true;
  std::string note;
};

/// What one estimate *means* relative to the true expected makespan —
/// drives the cross-method consistency contract in tests/test_sweep.cpp.
enum class EstimateKind {
  Estimate,    ///< approximates E[M]; |rel err| bounded by rel_tolerance
  LowerBound,  ///< guaranteed <= E[M]
  UpperBound,  ///< guaranteed >= E[M]
};

/// Static description of a method's applicability and accuracy contract.
struct Capabilities {
  bool two_state = true;    ///< handles RetryModel::TwoState
  bool geometric = false;   ///< handles RetryModel::Geometric
  /// Handles heterogeneous per-task failure rates; scenarios with a
  /// per-task FailureSpec are gated (supported == false) otherwise.
  bool heterogeneous = false;
  /// Hard task-count ceiling (enumeration oracles, dense covariance);
  /// larger graphs yield supported == false.
  std::size_t max_tasks = std::numeric_limits<std::size_t>::max();
  bool stochastic = false;  ///< result depends on EvalOptions::seed
  EstimateKind kind = EstimateKind::Estimate;
  /// Documented relative-accuracy contract vs core::exact_two_state on
  /// the <= 10-task generator DAGs at pfail <= 0.01 (two-state model).
  /// Stochastic methods are additionally granted 5 standard errors.
  /// Enforced by tests/test_sweep.cpp.
  double rel_tolerance = 1e-9;
};

/// One registered expected-makespan method.
class Evaluator {
 public:
  /// The wrapped computation: fills mean / std_error / distribution /
  /// censored_trials of the result in-place (seconds and capability
  /// gating are handled by evaluate()). Scratch is leased from the given
  /// Workspace — the kernel must not retain spans past the call. May
  /// throw; evaluate() converts exceptions into supported == false.
  using Fn = std::function<void(const scenario::Scenario&,
                                const EvalOptions&, Workspace&,
                                EvalResult&)>;

  Evaluator(std::string name, std::string description, Capabilities caps,
            Fn fn);

  [[nodiscard]] std::string_view name() const noexcept { return name_; }
  [[nodiscard]] std::string_view description() const noexcept {
    return description_;
  }
  [[nodiscard]] const Capabilities& capabilities() const noexcept {
    return caps_;
  }

  /// Runs the method on a compiled scenario with an explicit workspace —
  /// the serving hot path: on a warm `ws` the analytic methods perform
  /// zero heap allocations. Capability violations (retry model, graph
  /// size, heterogeneous rates) and exceptions thrown by the method
  /// surface as supported == false with a note; `seconds` is always the
  /// wall-clock spent inside the call. The workspace must not be used by
  /// another thread for the duration of the call.
  [[nodiscard]] EvalResult evaluate(const scenario::Scenario& sc,
                                    const EvalOptions& options,
                                    Workspace& ws) const;

  /// Workspace-less convenience overload: leases from the calling
  /// thread's pooled Workspace::local(), so repeated calls from one
  /// thread are just as allocation-free as the explicit form.
  [[nodiscard]] EvalResult evaluate(const scenario::Scenario& sc,
                                    const EvalOptions& options = {}) const;


 private:
  std::string name_;
  std::string description_;
  Capabilities caps_;
  Fn fn_;
};

/// A named collection of evaluators. `builtin()` exposes every method in
/// the library; experiments with custom estimators can copy it and add()
/// their own.
class EvaluatorRegistry {
 public:
  /// The registry of all built-in methods (see evaluator.cpp for the
  /// catalogue). Thread-safe to share: the registry is immutable and the
  /// evaluators are stateless.
  [[nodiscard]] static const EvaluatorRegistry& builtin();

  /// Adds an evaluator; throws std::invalid_argument on a duplicate name.
  void add(Evaluator evaluator);

  /// Looks up by exact name; nullptr when absent.
  [[nodiscard]] const Evaluator* find(std::string_view name) const noexcept;

  /// Registration-order list of names.
  [[nodiscard]] std::vector<std::string_view> names() const;

  [[nodiscard]] std::size_t size() const noexcept {
    return evaluators_.size();
  }
  [[nodiscard]] const std::vector<Evaluator>& evaluators() const noexcept {
    return evaluators_;
  }

 private:
  std::vector<Evaluator> evaluators_;
};

}  // namespace expmk::exp
