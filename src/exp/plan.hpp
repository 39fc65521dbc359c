// exp/plan.hpp
//
// The self-tuning query planner: given a compiled Scenario and a
// PlanBudget — a target relative error, a deadline in microseconds, or
// both — pick the CHEAPEST method in the registry catalogue predicted to
// meet the budget, size its atom/trial knobs, run it, and verify the
// delivered accuracy against the certified truncation envelope, with a
// bounds -> sp/dodin -> pilot-sized-MC escalation chain behind every
// prediction the model is not confident about.
//
// The paper's whole catalogue is an accuracy/cost tradeoff (exact is
// exponential, sp/dodin are atom-budget-bounded, MC pays per trial, the
// closed forms are cheap and biased); the planner turns that tradeoff
// into an API. Three layers:
//
//   * CostModel — predicted_us = coeff[method] * work(method, features),
//     with per-method coefficients fit OFFLINE from the committed BENCH
//     corpus (bench/fit_cost_model.py -> src/exp/cost_model_gen.hpp) and
//     corrected ONLINE by a per-method EWMA of observed/predicted ratios,
//     so the model self-tunes to the host it runs on. Methods the corpus
//     never measured carry fit_rows == 0 and are LOW CONFIDENCE.
//
//   * Planner::select — the pure decision function (no evaluation, no
//     allocation): enumerate capability-compatible methods, predict cost
//     and delivered accuracy, and pick. Target-only budgets pick the
//     cheapest accuracy-feasible method; deadline-only budgets pick the
//     most ACCURATE method predicted under the deadline (ties: cheaper);
//     combined budgets pick the cheapest meeting both. Monotone by
//     construction: a tighter deadline never selects a predicted-slower
//     method, a tighter target never selects a predicted-faster one
//     (tests/test_plan.cpp pins both). The serving shed policy calls this
//     directly with its per-level deadlines (serve/shed.hpp).
//
//   * Planner::run — select, evaluate, VERIFY: a certified-envelope
//     method whose delivered [mean_lo, mean_hi] width exceeds the target
//     gets its atom budget grown adaptively (width shrinks ~1/atoms);
//     an unsupported or still-too-wide result escalates down the chain
//     (bounds bracket -> sp if SP-collapsible else dodin -> pilot-sized
//     MC via mc::plan_with_pilot). Every attempt lands in the PlanReport.
//
// Determinism: select() is a pure function of (features, budget, model
// state); with the EWMA disabled (Config::enable_ewma = false) the whole
// plan is a pure function of the request and the committed coefficients.

#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "exp/evaluator.hpp"
#include "scenario/scenario.hpp"
#include "util/contracts.hpp"

namespace expmk::exp {

/// Planner method catalogue, index-aligned with the generated cost table
/// (gen::kCostMethodNames in src/exp/cost_model_gen.hpp). kBounds is the
/// bounds.lower/bounds.upper PAIR — the escalation chain's bracket
/// screen, never a direct Estimate answer.
enum class PlanMethod : std::uint8_t {
  kExact = 0,
  kExactGeo,
  kFo,
  kSo,
  kSp,
  kDodin,
  kSculli,
  kCorlca,
  kClark,
  kBounds,
  kMc,
  kCmc,
  kSpHier,
  kDodinHier,
  kMcHier,
  kCount,
};

inline constexpr std::size_t kPlanMethodCount =
    static_cast<std::size_t>(PlanMethod::kCount);

/// Registry name for a planner method ("bounds" for the pair). The view
/// is static storage (the generated name table).
EXPMK_NOALLOC [[nodiscard]] std::string_view plan_method_name(
    PlanMethod m) noexcept;

/// Inverse of plan_method_name; kCount for names outside the catalogue
/// ("bounds.lower" and "bounds.upper" both map to kBounds).
EXPMK_NOALLOC [[nodiscard]] PlanMethod plan_method_from_name(
    std::string_view name) noexcept;

/// What the caller is willing to spend / tolerate. At least one field
/// must be positive, and neither may be NaN, infinite or negative
/// (Planner::run throws std::invalid_argument otherwise). target_rel_err bounds the delivered relative error vs the
/// true expected makespan (verified against the certified envelope where
/// the method produces one); deadline_us bounds the PREDICTED evaluation
/// cost — a budget for the model, not a hard real-time cutoff.
struct PlanBudget {
  double target_rel_err = 0.0;  ///< 0 = unconstrained
  double deadline_us = 0.0;     ///< 0 = unconstrained
};

/// Everything the cost model reads from a compiled scenario. Cheap to
/// compute except sp-reducibility, which comes from the scenario's lazy
/// shared SP-tree cache (computed once per scenario, reused by the
/// sp.hier/dodin.hier/mc.hier evaluators).
struct CostFeatures {
  std::size_t tasks = 0;
  std::size_t edges = 0;
  double critical_path = 0.0;  ///< d(G), the failure-free makespan
  /// SP-tree quotient size; 1 = the DAG is fully SP-collapsible.
  std::size_t quotient_tasks = 0;
  bool sp_feasible = false;  ///< quotient_tasks == 1
  bool two_state = true;
  bool geometric = false;
  bool heterogeneous = false;
};

/// Extracts the planner features from a compiled scenario.
[[nodiscard]] CostFeatures plan_features(const scenario::Scenario& sc);

/// Calibrated per-method cost model: predicted_us = coeff * work * ewma.
/// Coefficients come from the generated header; the EWMA correction
/// self-tunes per host from observed evaluation times. Thread-safe: the
/// correction state is atomic (last-writer-wins updates).
class CostModel {
 public:
  CostModel() = default;

  /// The fixed per-method complexity formula (unit work). MIRRORED by
  /// bench/fit_cost_model.py::work — change one, change both. `atoms` and
  /// `trials` are the knob values the prediction is for (0 picks the
  /// method's nominal).
  EXPMK_NOALLOC [[nodiscard]] static double work(PlanMethod m,
                                                 const CostFeatures& f,
                                                 std::size_t atoms,
                                                 std::uint64_t trials) noexcept;

  /// Predicted evaluation cost in microseconds, EWMA-corrected.
  EXPMK_NOALLOC [[nodiscard]] double predict_us(PlanMethod m,
                                                const CostFeatures& f,
                                                std::size_t atoms,
                                                std::uint64_t trials)
      const noexcept;

  /// True when the committed fit saw at least one corpus row for `m`;
  /// false marks a default/proxy coefficient (low confidence).
  EXPMK_NOALLOC [[nodiscard]] static bool calibrated(PlanMethod m) noexcept;

  /// Folds one observed evaluation (predicted vs actual us) into the
  /// method's EWMA correction. The per-update ratio is clamped to
  /// [1/4, 4] so one outlier (a cold cache, a descheduled thread) cannot
  /// flip the model. No-op when the EWMA is disabled.
  void observe(PlanMethod m, double predicted_us, double actual_us) noexcept;

  /// The current multiplicative correction for `m` (1 when untouched).
  [[nodiscard]] double correction(PlanMethod m) const noexcept;

  /// The EWMA smoothing weight of each observation (in log space).
  static constexpr double kEwmaAlpha = 0.2;

  void set_ewma(bool enabled) noexcept { ewma_enabled_ = enabled; }

 private:
  /// log-space EWMA of observed/predicted per method; exp() of it is the
  /// multiplicative correction. Atomic doubles, relaxed order: the model
  /// tolerates lost updates (it is a smoothing filter, not a ledger).
  std::array<std::atomic<double>, kPlanMethodCount> ewma_log_{};
  bool ewma_enabled_ = true;
};

/// The outcome of the pure selection step.
struct PlanChoice {
  PlanMethod method = PlanMethod::kFo;
  double predicted_us = 0.0;
  double predicted_rel_err = 0.0;
  std::size_t max_atoms = 0;     ///< sp/dodin/hier atom budget (0 = exact)
  std::uint64_t mc_trials = 0;   ///< mc/cmc/mc.hier trial count
  /// False when NO capability-compatible method is predicted to meet the
  /// budget; `method` is then the best-effort pick (cheapest under a
  /// deadline, most accurate under a target).
  bool feasible = false;
  /// The chosen method's coefficient is a default/proxy, or the budget
  /// was infeasible. run() still attempts a FEASIBLE low-confidence pick
  /// (delivered accuracy is verified either way) but goes straight to
  /// the escalation chain for an infeasible one.
  bool low_confidence = false;
};

/// One attempted evaluation inside Planner::run.
struct PlanStep {
  PlanMethod method = PlanMethod::kFo;
  double predicted_us = 0.0;
  double actual_us = 0.0;
  std::size_t max_atoms = 0;
  std::uint64_t mc_trials = 0;
  bool supported = false;
  /// Certified envelope width relative to the mean ((hi-lo)/|mean|);
  /// 0 when degenerate or unsupported.
  double envelope_rel_width = 0.0;
  std::string note;
};

/// The structured decision record returned with every planned result.
struct PlanReport {
  PlanMethod method = PlanMethod::kFo;  ///< method behind `result`
  std::string_view method_name;
  double predicted_us = 0.0;  ///< model's cost prediction for that method
  double actual_us = 0.0;     ///< measured evaluation cost
  double predicted_rel_err = 0.0;
  double envelope_rel_width = 0.0;
  std::size_t max_atoms = 0;
  std::uint64_t mc_trials = 0;
  int escalations = 0;  ///< chain steps taken past the primary choice
  bool low_confidence = false;
  bool met_deadline = true;  ///< predicted_us <= deadline (when set)
  bool met_target = true;    ///< delivered accuracy <= target (when set)
  std::vector<PlanStep> steps;  ///< every attempt, in execution order
};

struct PlannedResult {
  EvalResult result;
  PlanReport report;
};

/// The planner. Immutable configuration + a self-tuning CostModel; safe
/// to share across threads (select is pure, run's shared state is the
/// atomic EWMA).
class Planner {
 public:
  struct Config {
    /// Disable for bitwise-reproducible planning: decisions become a pure
    /// function of features + committed coefficients.
    bool enable_ewma = true;
  };

  Planner();  // default Config, builtin registry
  explicit Planner(Config config, const EvaluatorRegistry& registry =
                                      EvaluatorRegistry::builtin());

  [[nodiscard]] const Config& config() const noexcept { return config_; }
  [[nodiscard]] CostModel& model() noexcept { return model_; }
  [[nodiscard]] const CostModel& model() const noexcept { return model_; }

  /// Pure selection: the cheapest method predicted to meet `budget` (see
  /// file comment for the exact tie-breaking semantics). Never evaluates
  /// anything; allocation-free — the serving shed's hot path.
  EXPMK_NOALLOC [[nodiscard]] PlanChoice select(
      const CostFeatures& f, const PlanBudget& budget) const noexcept;

  /// Planned evaluation: select, evaluate, verify, escalate. `base`
  /// supplies the request-level knobs the planner does not own (seed,
  /// threads, control variate, requested atom/trial counts used as cost
  /// hints). Throws std::invalid_argument when both budget fields are
  /// unset, or when either is NaN, infinite or negative. The result's `seconds` covers the returned evaluation only;
  /// PlanReport::steps records the cost of everything else that ran.
  [[nodiscard]] PlannedResult run(const scenario::Scenario& sc,
                                  const PlanBudget& budget,
                                  const EvalOptions& base, Workspace& ws) const;

  /// Workspace-less convenience overload (Workspace::local()).
  [[nodiscard]] PlannedResult run(const scenario::Scenario& sc,
                                  const PlanBudget& budget,
                                  const EvalOptions& base = {}) const;

 private:
  struct Candidate;
  void enumerate(const CostFeatures& f, const PlanBudget& budget,
                 std::span<Candidate> out, std::size_t& count) const noexcept;

  Config config_;
  const EvaluatorRegistry* registry_;
  /// Capability snapshot by PlanMethod index (kBounds = bounds.lower).
  std::array<Capabilities, kPlanMethodCount> caps_{};
  std::array<const Evaluator*, kPlanMethodCount> evaluators_{};
  const Evaluator* bounds_upper_ = nullptr;
  mutable CostModel model_;
};

}  // namespace expmk::exp
