#include "exp/evaluator.hpp"

#include <cmath>
#include <stdexcept>
#include <utility>

#include "core/bounds.hpp"
#include "core/exact.hpp"
#include "core/first_order.hpp"
#include "core/second_order.hpp"
#include "exp/hier.hpp"
#include "mc/conditional.hpp"
#include "mc/engine.hpp"
#include "normal/clark_full.hpp"
#include "normal/corlca.hpp"
#include "normal/sculli.hpp"
#include "spgraph/dodin.hpp"
#include "spgraph/sp_reduce.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace expmk::exp {

Evaluator::Evaluator(std::string name, std::string description,
                     Capabilities caps, Fn fn)
    : name_(std::move(name)),
      description_(std::move(description)),
      caps_(caps),
      fn_(std::move(fn)) {}

EvalResult Evaluator::evaluate(const scenario::Scenario& sc,
                               const EvalOptions& options,
                               Workspace& ws) const {
  EvalResult result;
  const core::RetryModel retry = sc.retry();
  if ((retry == core::RetryModel::TwoState && !caps_.two_state) ||
      (retry == core::RetryModel::Geometric && !caps_.geometric)) {
    result.supported = false;
    result.note = retry == core::RetryModel::TwoState
                      ? "two-state retry model not supported"
                      : "geometric retry model not supported";
    return result;
  }
  if (sc.heterogeneous() && !caps_.heterogeneous) {
    result.supported = false;
    result.note = "per-task failure rates not supported";
    return result;
  }
  if (sc.task_count() > caps_.max_tasks) {
    result.supported = false;
    result.note = "graph exceeds " + std::to_string(caps_.max_tasks) +
                  "-task method limit";
    return result;
  }
  const util::Timer timer;
  try {
    fn_(sc, options, ws, result);
  } catch (const std::exception& e) {
    result = EvalResult{};
    result.supported = false;
    result.note = e.what();
  }
  if (result.supported) {
    // Methods that never truncate (or did not truncate this time) carry
    // the degenerate certified envelope.
    if (std::isnan(result.mean_lo)) result.mean_lo = result.mean;
    if (std::isnan(result.mean_hi)) result.mean_hi = result.mean;
  }
  result.seconds = timer.seconds();
  return result;
}

EvalResult Evaluator::evaluate(const scenario::Scenario& sc,
                               const EvalOptions& options) const {
  return evaluate(sc, options, Workspace::local());
}

void EvaluatorRegistry::add(Evaluator evaluator) {
  if (find(evaluator.name()) != nullptr) {
    throw std::invalid_argument("EvaluatorRegistry: duplicate name '" +
                                std::string(evaluator.name()) + "'");
  }
  evaluators_.push_back(std::move(evaluator));
}

const Evaluator* EvaluatorRegistry::find(
    std::string_view name) const noexcept {
  for (const Evaluator& e : evaluators_) {
    if (e.name() == name) return &e;
  }
  return nullptr;
}

std::vector<std::string_view> EvaluatorRegistry::names() const {
  std::vector<std::string_view> out;
  out.reserve(evaluators_.size());
  for (const Evaluator& e : evaluators_) out.push_back(e.name());
  return out;
}

namespace {

/// Fills the certified truncation envelope of a distribution method from
/// its accumulated ReduceStats-style accounting, and surfaces a nonzero
/// truncation count through `note` so silent accuracy loss is visible in
/// sweep artifacts. The envelope is widened by a relative slack (covering
/// the floating-point divergence between the truncated and untruncated
/// pipelines) only when truncation actually fired — the no-truncation
/// envelope stays exactly degenerate. The note assignment allocates, so
/// the zero-allocation steady-state contract holds whenever the atom
/// budget is not being hit (which is also when nothing needs reporting).
void set_certified(EvalResult& r,
                   const prob::dist_kernels::TruncationCert& cert) {
  if (cert.events == 0) {
    r.mean_lo = r.mean;
    r.mean_hi = r.mean;
    return;
  }
  const double slack = 1e-9 * std::max(1.0, std::fabs(r.mean));
  r.mean_lo = r.mean - cert.up - slack;
  r.mean_hi = r.mean + cert.down + slack;
  r.note = "atom-cap truncation: " + std::to_string(cert.events) + " ops, " +
           std::to_string(cert.merges) + " merges";
}

/// Smallest graph on which so and bounds fan out; smaller graphs keep the
/// EXPMK_NOALLOC serial kernels. Set when every fan-out started threads;
/// with the one pool a fan-out only wakes helpers and already wins at a
/// few hundred tasks, so the gate is conservative until the planner's
/// cost model can set it per method (DESIGN.md, "Threads").
constexpr std::size_t kFanOutMinTasks = 4096;

/// Worker count for the so / bounds fan-out variants: EvalOptions::threads
/// resolved against the scenario size. 1 means "serial kernel".
std::size_t analytic_workers(const scenario::Scenario& sc,
                             const EvalOptions& opt) {
  if (opt.threads == 1 || sc.task_count() < kFanOutMinTasks) return 1;
  return util::resolve_threads(opt.threads);
}

EvaluatorRegistry make_builtin() {
  EvaluatorRegistry reg;

  // ------------------------------------------------ exact ground truths
  reg.add(Evaluator(
      "exact",
      "Exact E[M] of the 2-state DAG by subset enumeration, O(2^V (V+E))",
      {.two_state = true,
       .geometric = false,
       .heterogeneous = true,
       .max_tasks = core::kMaxExactTasks,
       .rel_tolerance = 1e-12},
      [](const scenario::Scenario& sc, const EvalOptions& opt,
         Workspace& ws, EvalResult& r) {
        r.mean = core::exact_two_state(sc, ws);
        if (opt.capture_distribution) {
          r.distribution = core::exact_two_state_distribution(sc);
        }
      }));

  reg.add(Evaluator(
      "exact.geo",
      "Exact E[M] under the geometric retry model truncated at "
      "geometric_max_executions executions (lower bound on the untruncated "
      "model, converging exponentially)",
      {.two_state = false,
       .geometric = true,
       // The enumeration is per-task throughout (each task's truncated
       // geometric state table uses its own p_i), so per-task rates are
       // exact too.
       .heterogeneous = true,
       // max_executions^V states: 3^12 ~ 5e5 keeps a cell sub-second.
       .max_tasks = 12,
       .kind = EstimateKind::Estimate,
       .rel_tolerance = 1e-6},
      [](const scenario::Scenario& sc, const EvalOptions& opt,
         Workspace& ws, EvalResult& r) {
        r.mean = core::exact_geometric(sc, opt.geometric_max_executions, ws);
      }));

  // -------------------------------------- the paper's closed-form family
  reg.add(Evaluator(
      "fo",
      "First-order approximation (the paper, Section IV), O(V+E); "
      "model-independent to O(lambda^2)",
      {.two_state = true,
       .geometric = true,
       .heterogeneous = true,
       .rel_tolerance = 5e-3},
      [](const scenario::Scenario& sc, const EvalOptions&, Workspace& ws,
         EvalResult& r) {
        r.mean = core::first_order(sc, ws).expected_makespan();
      }));

  reg.add(Evaluator(
      "so",
      "Second-order approximation (paper's conclusion, our extension), "
      "O(V (V+E))",
      {.two_state = true,
       .geometric = true,
       .heterogeneous = true,
       .rel_tolerance = 1e-3},
      [](const scenario::Scenario& sc, const EvalOptions& opt, Workspace& ws,
         EvalResult& r) {
        r.mean = core::second_order(sc, ws, analytic_workers(sc, opt))
                     .expected_makespan;
      }));

  // ------------------------------------------- series-parallel / Dodin
  reg.add(Evaluator(
      "sp",
      "Exact series-parallel reduction (Valdes-Tarjan-Lawler rewrite); "
      "supported only when the AoA network is two-terminal SP",
      {.two_state = true,
       .geometric = false,
       .heterogeneous = true,
       .rel_tolerance = 1e-9},
      [](const scenario::Scenario& sc, const EvalOptions& opt,
         Workspace& ws, EvalResult& r) {
        // Flat engine: zero steady-state allocations on a warm workspace
        // (the distribution object is materialized only on capture).
        prob::DiscreteDistribution* cap =
            opt.capture_distribution ? &r.distribution.emplace() : nullptr;
        const auto eval = sp::evaluate_sp_flat(sc, opt.sp_max_atoms, ws, cap);
        if (!eval.is_series_parallel) {
          r.distribution.reset();
          r.supported = false;
          r.note = "graph is not series-parallel";
          return;
        }
        r.mean = eval.mean;
        set_certified(r, eval.stats.truncation);
      }));

  reg.add(Evaluator(
      "dodin",
      "Dodin's series-parallelization bound (Dodin 1985) — the paper's "
      "first competitor",
      {.two_state = true,
       .geometric = false,
       // Each task's 2-state law carries its own cached p_i, so the
       // transformation is per-task throughout — heterogeneous rates
       // supported (validated vs the exact oracle on SP DAGs, where the
       // untruncated transformation is exact).
       .heterogeneous = true,
       .rel_tolerance = 0.05},
      [](const scenario::Scenario& sc, const EvalOptions& opt,
         Workspace& ws, EvalResult& r) {
        // Flat engine: zero steady-state allocations on a warm workspace
        // (the distribution object is materialized only on capture).
        prob::DiscreteDistribution* cap =
            opt.capture_distribution ? &r.distribution.emplace() : nullptr;
        const auto d = sp::dodin_two_state_flat(
            sc, {.max_atoms = opt.dodin_atoms}, ws, cap);
        r.mean = d.mean;
        set_certified(r, d.truncation);
      }));

  // ----------------------------------------------------- Normal family
  reg.add(Evaluator(
      "sculli",
      "Sculli's normal propagation (Sculli 1983) — the paper's 'Normal' "
      "competitor, O(V+E)",
      {.two_state = true,
       .geometric = true,
       .heterogeneous = true,
       .rel_tolerance = 0.05},
      [](const scenario::Scenario& sc, const EvalOptions&, Workspace& ws,
         EvalResult& r) {
        r.mean = normal::sculli(sc, ws).expected_makespan();
      }));

  reg.add(Evaluator(
      "corlca",
      "CorLCA correlation-tree normal propagation (Canon & Jeannot 2016), "
      "O(E depth)",
      {.two_state = true,
       .geometric = true,
       .heterogeneous = true,
       .rel_tolerance = 0.05},
      [](const scenario::Scenario& sc, const EvalOptions&, Workspace& ws,
         EvalResult& r) {
        r.mean = normal::corlca(sc, ws).expected_makespan();
      }));

  reg.add(Evaluator(
      "clark",
      "Clark propagation with the full covariance matrix, O(E V) time / "
      "O(V^2) memory",
      {.two_state = true,
       .geometric = true,
       .heterogeneous = true,
       .max_tasks = normal::kClarkFullMaxTasks,
       .rel_tolerance = 0.05},
      [](const scenario::Scenario& sc, const EvalOptions&, Workspace& ws,
         EvalResult& r) {
        r.mean = normal::clark_full(sc, ws).expected_makespan();
      }));

  // -------------------------------------------------- analytic bounds
  reg.add(Evaluator(
      "bounds.lower",
      "Jensen lower bound: d(G) with expected durations, O(V+E)",
      {.two_state = true,
       .geometric = false,
       .heterogeneous = true,
       .kind = EstimateKind::LowerBound},
      [](const scenario::Scenario& sc, const EvalOptions& opt, Workspace& ws,
         EvalResult& r) {
        r.mean = core::makespan_bounds(sc, ws, analytic_workers(sc, opt))
                     .jensen_lower;
      }));

  reg.add(Evaluator(
      "bounds.upper",
      "Level-decomposition upper bound: sum of per-level expected maxima",
      {.two_state = true,
       .geometric = false,
       .heterogeneous = true,
       .kind = EstimateKind::UpperBound},
      [](const scenario::Scenario& sc, const EvalOptions& opt, Workspace& ws,
         EvalResult& r) {
        r.mean = core::makespan_bounds(sc, ws, analytic_workers(sc, opt))
                     .level_upper;
      }));

  // -------------------------------------------------------- Monte-Carlo
  reg.add(Evaluator(
      "mc",
      "Monte-Carlo estimation (the paper's ground truth; bit-identical "
      "across thread counts)",
      {.two_state = true,
       .geometric = true,
       .heterogeneous = true,
       .stochastic = true,
       .rel_tolerance = 0.02},
      [](const scenario::Scenario& sc, const EvalOptions& opt,
         Workspace&, EvalResult& r) {
        // The caller's workspace goes unused: the engine runs its work
        // units on several threads, while a Workspace is single-thread
        // affine. Each work unit leases its task_count() x kTrialLanes
        // finish matrix from its own thread's Workspace::local(); every
        // call still allocates its chunk accumulators.
        mc::McConfig cfg;
        cfg.trials = opt.mc_trials;
        cfg.seed = opt.seed;
        cfg.threads = opt.threads;
        cfg.control_variate = opt.mc_control_variate;
        const auto mc = mc::run_monte_carlo(sc, cfg);
        r.mean = mc.mean;
        r.std_error = mc.std_error;
      }));

  reg.add(Evaluator(
      "cmc",
      "Conditional (zero-failure-stratum) Monte-Carlo: p0 analytic, only "
      "E[M | >=1 failure] sampled",
      {.two_state = true,
       .geometric = false,
       .heterogeneous = true,
       .stochastic = true,
       .rel_tolerance = 0.02},
      [](const scenario::Scenario& sc, const EvalOptions& opt,
         Workspace&, EvalResult& r) {
        mc::ConditionalMcConfig cfg;
        cfg.trials = opt.mc_trials;
        cfg.seed = opt.seed;
        cfg.threads = opt.threads;
        const auto mc = mc::run_conditional_monte_carlo(sc, cfg);
        r.mean = mc.mean;
        r.std_error = mc.std_error;
        r.censored_trials = mc.censored_trials;
      }));

  // -------------------------------- hierarchical (SP-tree) evaluation
  reg.add(Evaluator(
      "sp.hier",
      "Hierarchical SP-tree evaluation: module makespan laws built "
      "bottom-up (memoized on content hash), quotient reduced by the "
      "exact SP engine; supported when the QUOTIENT is series-parallel",
      {.two_state = true,
       .geometric = false,
       .heterogeneous = true,
       .rel_tolerance = 1e-9},
      [](const scenario::Scenario& sc, const EvalOptions& opt, Workspace& ws,
         EvalResult& r) {
        prob::DiscreteDistribution* cap =
            opt.capture_distribution ? &r.distribution.emplace() : nullptr;
        const auto ev = hier::evaluate_sp_hier(sc, opt.sp_max_atoms, ws, cap);
        if (!ev.is_series_parallel) {
          r.distribution.reset();
          r.supported = false;
          r.note = "quotient graph is not series-parallel";
          return;
        }
        r.mean = ev.mean;
        set_certified(r, ev.truncation);
      }));

  reg.add(Evaluator(
      "dodin.hier",
      "Dodin's bound on the SP-tree quotient: duplications scale with the "
      "quotient, module laws come from the memoized hierarchical build",
      {.two_state = true,
       .geometric = false,
       .heterogeneous = true,
       .rel_tolerance = 0.05},
      [](const scenario::Scenario& sc, const EvalOptions& opt, Workspace& ws,
         EvalResult& r) {
        prob::DiscreteDistribution* cap =
            opt.capture_distribution ? &r.distribution.emplace() : nullptr;
        const auto ev = hier::evaluate_dodin_hier(sc, opt.dodin_atoms, ws, cap);
        r.mean = ev.mean;
        set_certified(r, ev.truncation);
      }));

  reg.add(Evaluator(
      "mc.hier",
      "Monte-Carlo over the SP-tree quotient: inverse-CDF module sampling "
      "+ finish-time DP per trial, O(quotient) instead of O(V); "
      "bit-identical across thread counts",
      {.two_state = true,
       .geometric = false,
       .heterogeneous = true,
       .stochastic = true,
       .rel_tolerance = 0.02},
      [](const scenario::Scenario& sc, const EvalOptions& opt, Workspace& ws,
         EvalResult& r) {
        const auto ev = hier::evaluate_mc_hier(sc, opt.dodin_atoms, ws,
                                               opt.mc_trials, opt.seed,
                                               opt.threads);
        r.mean = ev.mean;
        r.std_error = ev.std_error;
        set_certified(r, ev.truncation);
      }));

  return reg;
}

}  // namespace

const EvaluatorRegistry& EvaluatorRegistry::builtin() {
  static const EvaluatorRegistry registry = make_builtin();
  return registry;
}

}  // namespace expmk::exp
