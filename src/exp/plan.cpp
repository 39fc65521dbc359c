#include "exp/plan.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "core/failure_model.hpp"
#include "exp/cost_model_gen.hpp"
#include "graph/sp_tree.hpp"
#include "mc/planning.hpp"

namespace expmk::exp {

namespace {

// 95% normal quantile: the delivered-accuracy check grants stochastic
// methods this many standard errors (matches the sweep contract's
// convention; kTrialConfidence drives the TRIAL planning, which uses
// the exact probit via mc::plan_trials).
constexpr double kZ95 = 1.96;

// The escalation chain's fixed schedule: the MC pilot size and the
// confidence its production run is planned at, and the sp/dodin atom
// budget's start and cap (grown over at most a few rounds).
constexpr double kTrialConfidence = 0.95;
constexpr std::uint64_t kPilotTrials = 2000;
constexpr std::size_t kAtomsStart = 64;
constexpr std::size_t kAtomsCap = 4096;

// Nominal knob values used for cost prediction when a request leaves the
// knob unset: EvalOptions' own defaults.
constexpr std::size_t kNominalAtoms = 256;
constexpr std::uint64_t kNominalTrials = 100'000;

// The MC accuracy contract anchor: the registry documents rel_tolerance
// 0.02 at the default 100k trials; the sampling error scales with
// 1/sqrt(trials) from there.
constexpr double kMcContractErr = 0.02;
constexpr double kMcContractTrials = 100'000.0;

EXPMK_NOALLOC constexpr std::size_t idx(PlanMethod m) noexcept {
  return static_cast<std::size_t>(m);
}

EXPMK_NOALLOC bool is_atom_method(PlanMethod m) noexcept {
  return m == PlanMethod::kSp || m == PlanMethod::kDodin ||
         m == PlanMethod::kSpHier || m == PlanMethod::kDodinHier;
}

EXPMK_NOALLOC bool is_mc_method(PlanMethod m) noexcept {
  return m == PlanMethod::kMc || m == PlanMethod::kCmc ||
         m == PlanMethod::kMcHier;
}

EXPMK_NOALLOC bool is_certified_method(PlanMethod m) noexcept {
  return is_atom_method(m);
}

/// Relative width of a result's certified envelope; 0 when degenerate.
EXPMK_NOALLOC double envelope_rel_width(const EvalResult& r) noexcept {
  if (!r.supported || std::isnan(r.mean) || r.mean == 0.0) return 0.0;
  return (r.mean_hi - r.mean_lo) / std::fabs(r.mean);
}

/// Trials needed for a relative sampling error <= t under the contract
/// anchor (pilot-free prior; the escalation chain's pilot refines it).
EXPMK_NOALLOC std::uint64_t trials_for_target(double t) noexcept {
  const double need =
      kMcContractTrials * (kMcContractErr / t) * (kMcContractErr / t);
  return static_cast<std::uint64_t>(
      std::clamp(need, 2000.0, 50'000'000.0));
}

}  // namespace

EXPMK_NOALLOC std::string_view plan_method_name(PlanMethod m) noexcept {
  if (m >= PlanMethod::kCount) return "?";
  return gen::kCostMethodNames[idx(m)];
}

EXPMK_NOALLOC PlanMethod plan_method_from_name(std::string_view name) noexcept {
  if (name == "bounds.lower" || name == "bounds.upper") {
    return PlanMethod::kBounds;
  }
  for (std::size_t i = 0; i < kPlanMethodCount; ++i) {
    if (name == gen::kCostMethodNames[i]) {
      return static_cast<PlanMethod>(i);
    }
  }
  return PlanMethod::kCount;
}

CostFeatures plan_features(const scenario::Scenario& sc) {
  CostFeatures f;
  f.tasks = sc.task_count();
  f.edges = sc.dag().edge_count();
  f.critical_path = sc.critical_path();
  f.quotient_tasks = sc.sp_decomposition().quotient.task_count();
  f.sp_feasible = f.quotient_tasks == 1;
  f.two_state = sc.retry() == core::RetryModel::TwoState;
  f.geometric = sc.retry() == core::RetryModel::Geometric;
  f.heterogeneous = sc.heterogeneous();
  return f;
}

// --------------------------------------------------------------- CostModel

EXPMK_NOALLOC double CostModel::work(PlanMethod m, const CostFeatures& f,
                                     std::size_t atoms,
                                     std::uint64_t trials) noexcept {
  // MIRROR of bench/fit_cost_model.py::work — change one, change both.
  const double v = static_cast<double>(f.tasks);
  const double ve = static_cast<double>(f.tasks + f.edges);
  const double a = static_cast<double>(atoms > 0 ? atoms : kNominalAtoms);
  const double n = static_cast<double>(trials > 0 ? trials : kNominalTrials);
  switch (m) {
    case PlanMethod::kExact:
      return std::exp2(std::min(v, 50.0)) * ve;
    case PlanMethod::kExactGeo:
      return std::pow(3.0, std::min(v, 30.0)) * v;
    case PlanMethod::kFo:
    case PlanMethod::kSculli:
    case PlanMethod::kCorlca:
    case PlanMethod::kBounds:
      return ve;
    case PlanMethod::kSo:
    case PlanMethod::kClark:
      return v * v;
    case PlanMethod::kSp:
    case PlanMethod::kDodin:
    case PlanMethod::kSpHier:
    case PlanMethod::kDodinHier:
      return ve * a;
    case PlanMethod::kMc:
    case PlanMethod::kCmc:
    case PlanMethod::kMcHier:
      return n * ve;
    case PlanMethod::kCount:
      break;
  }
  return 0.0;
}

EXPMK_NOALLOC double CostModel::predict_us(PlanMethod m, const CostFeatures& f,
                                           std::size_t atoms,
                                           std::uint64_t trials)
    const noexcept {
  if (m >= PlanMethod::kCount) return 0.0;
  double us = gen::kCostCoeffUs[idx(m)] * work(m, f, atoms, trials);
  if (ewma_enabled_) {
    us *= std::exp(ewma_log_[idx(m)].load(std::memory_order_relaxed));
  }
  return us;
}

EXPMK_NOALLOC bool CostModel::calibrated(PlanMethod m) noexcept {
  return m < PlanMethod::kCount && gen::kCostFitRows[idx(m)] > 0;
}

void CostModel::observe(PlanMethod m, double predicted_us,
                        double actual_us) noexcept {
  if (!ewma_enabled_ || m >= PlanMethod::kCount) return;
  if (predicted_us <= 0.0 || actual_us <= 0.0) return;
  // Clamp each observation's ratio so one outlier (cold cache, a
  // descheduled worker) cannot swing the model by more than 4x.
  const double ratio = std::clamp(actual_us / predicted_us, 0.25, 4.0);
  std::atomic<double>& cell = ewma_log_[idx(m)];
  const double prev = cell.load(std::memory_order_relaxed);
  const double next =
      (1.0 - kEwmaAlpha) * prev + kEwmaAlpha * std::log(ratio);
  // Last-writer-wins store: the EWMA is a smoothing filter, not a
  // ledger — a lost concurrent update is within its noise floor.
  cell.store(next, std::memory_order_relaxed);
}

double CostModel::correction(PlanMethod m) const noexcept {
  if (m >= PlanMethod::kCount) return 1.0;
  return std::exp(ewma_log_[idx(m)].load(std::memory_order_relaxed));
}

// ----------------------------------------------------------------- Planner

struct Planner::Candidate {
  PlanMethod method = PlanMethod::kCount;
  double cost_us = 0.0;
  double rel_err = 0.0;
  std::size_t atoms = 0;
  std::uint64_t trials = 0;
};

Planner::Planner() : Planner(Config{}) {}

Planner::Planner(Config config, const EvaluatorRegistry& registry)
    : config_(config), registry_(&registry) {
  model_.set_ewma(config_.enable_ewma);
  for (std::size_t i = 0; i < kPlanMethodCount; ++i) {
    const PlanMethod m = static_cast<PlanMethod>(i);
    const std::string_view name =
        m == PlanMethod::kBounds ? std::string_view("bounds.lower")
                                 : plan_method_name(m);
    evaluators_[i] = registry.find(name);
    if (evaluators_[i] != nullptr) {
      caps_[i] = evaluators_[i]->capabilities();
    }
  }
  bounds_upper_ = registry.find("bounds.upper");
}

EXPMK_NOALLOC void Planner::enumerate(const CostFeatures& f,
                                      const PlanBudget& budget,
                                      std::span<Candidate> out,
                                      std::size_t& count) const noexcept {
  const double t = budget.target_rel_err;
  const double d = budget.deadline_us;
  count = 0;
  for (std::size_t i = 0; i < kPlanMethodCount; ++i) {
    const PlanMethod m = static_cast<PlanMethod>(i);
    if (m == PlanMethod::kBounds) continue;  // bracket screen only
    if (evaluators_[i] == nullptr) continue;
    const Capabilities& caps = caps_[i];
    if (f.geometric && !caps.geometric) continue;
    if (f.two_state && !caps.two_state) continue;
    if (f.heterogeneous && !caps.heterogeneous) continue;
    if (f.tasks > caps.max_tasks) continue;
    if (caps.kind != EstimateKind::Estimate) continue;
    // The sp engines need the DAG to collapse to a single SP module; the
    // quotient size is the planner's feasibility signal (a misprediction
    // surfaces as supported == false and escalates).
    if ((m == PlanMethod::kSp || m == PlanMethod::kSpHier) &&
        !f.sp_feasible) {
      continue;
    }

    Candidate c;
    c.method = m;
    if (is_atom_method(m)) {
      // Tight targets on SMALL graphs get the exact (uncapped) sp
      // reduction — on large ones the uncapped atom arena explodes
      // (FlatNetwork's 2^32 offset range), so they get the atom cap and
      // the adaptive growth loop instead.
      const bool sp_like = m == PlanMethod::kSp || m == PlanMethod::kSpHier;
      c.atoms = sp_like && t > 0.0 && t <= 1e-6 && f.tasks <= 64
                    ? 0
                    : kNominalAtoms;
    }
    if (is_mc_method(m)) {
      std::uint64_t trials = t > 0.0 ? trials_for_target(t) : kNominalTrials;
      if (d > 0.0) {
        // Deadline cap: at most as many trials as the per-trial cost
        // prediction says fit (floor 100 so the estimate stays usable).
        const double per_trial = model_.predict_us(m, f, 0, 1);
        if (per_trial > 0.0) {
          const double cap = std::max(100.0, d / per_trial);
          trials = std::min(
              trials, static_cast<std::uint64_t>(
                          std::min(cap, 50'000'000.0)));
        }
      }
      c.trials = trials;
    }
    c.cost_us = model_.predict_us(m, f, c.atoms, c.trials);

    // Predicted delivered accuracy.
    if (is_mc_method(m)) {
      c.rel_err = kMcContractErr *
                  std::sqrt(kMcContractTrials /
                            static_cast<double>(std::max<std::uint64_t>(
                                c.trials, 1)));
    } else if (m == PlanMethod::kSp || m == PlanMethod::kSpHier) {
      // Exact up to the certified truncation envelope, which run()
      // verifies and adaptively narrows to the target.
      c.rel_err = c.atoms == 0 ? 1e-9 : (t > 0.0 ? t : 1e-6);
    } else if (m == PlanMethod::kDodin || m == PlanMethod::kDodinHier) {
      c.rel_err = caps.rel_tolerance;  // model bias floor (0.05)
    } else {
      c.rel_err = caps.rel_tolerance;
    }
    out[count++] = c;
  }
}

EXPMK_NOALLOC PlanChoice Planner::select(const CostFeatures& f,
                                         const PlanBudget& budget)
    const noexcept {
  std::array<Candidate, kPlanMethodCount> cands;
  std::size_t n = 0;
  enumerate(f, budget, cands, n);

  const double t = budget.target_rel_err;
  const double d = budget.deadline_us;

  // Ranking rules (inline; see the file comment in plan.hpp): a target
  // picks the CHEAPEST feasible method (accuracy breaks ties), a bare
  // deadline picks the most ACCURATE one under it (cost breaks ties).
  const Candidate* best = nullptr;      // best among budget-feasible
  const Candidate* fallback = nullptr;  // best-effort when none feasible
  for (std::size_t i = 0; i < n; ++i) {
    const Candidate& c = cands[i];
    const bool acc_ok = t <= 0.0 || c.rel_err <= t;
    const bool dl_ok = d <= 0.0 || c.cost_us <= d;
    if (acc_ok && dl_ok) {
      bool wins = best == nullptr;
      if (!wins && t > 0.0) {
        wins = c.cost_us < best->cost_us ||
               (c.cost_us == best->cost_us && c.rel_err < best->rel_err);
      } else if (!wins) {
        wins = c.rel_err < best->rel_err ||
               (c.rel_err == best->rel_err && c.cost_us < best->cost_us);
      }
      if (wins) best = &c;
    }
    // Best effort: under a target chase accuracy, else chase cost.
    bool fb_wins = fallback == nullptr;
    if (!fb_wins && t > 0.0) {
      fb_wins = c.rel_err < fallback->rel_err ||
                (c.rel_err == fallback->rel_err && c.cost_us < fallback->cost_us);
    } else if (!fb_wins) {
      fb_wins = c.cost_us < fallback->cost_us ||
                (c.cost_us == fallback->cost_us && c.rel_err < fallback->rel_err);
    }
    if (fb_wins) fallback = &c;
  }

  PlanChoice choice;
  if (best == nullptr && fallback == nullptr) {
    // Nothing in the catalogue applies (should not happen: fo covers
    // every scenario); report an infeasible fo plan.
    choice.method = PlanMethod::kFo;
    choice.low_confidence = true;
    return choice;
  }
  const Candidate& pick = best != nullptr ? *best : *fallback;
  choice.method = pick.method;
  choice.predicted_us = pick.cost_us;
  choice.predicted_rel_err = pick.rel_err;
  choice.max_atoms = pick.atoms;
  choice.mc_trials = pick.trials;
  choice.feasible = best != nullptr;
  choice.low_confidence = !choice.feasible || !CostModel::calibrated(pick.method);
  return choice;
}

namespace {

/// The delivered (a-posteriori) relative error bound of one evaluation:
/// certified envelope for the atom methods (plus dodin's documented model
/// bias), measured standard errors for the stochastic ones, the registry
/// contract for the deterministic closed forms.
double delivered_rel_err(PlanMethod m, const Capabilities& caps,
                         const EvalResult& r) {
  if (!r.supported) return std::numeric_limits<double>::infinity();
  const double env = envelope_rel_width(r);
  if (m == PlanMethod::kSp || m == PlanMethod::kSpHier) return env + 1e-9;
  if (m == PlanMethod::kDodin || m == PlanMethod::kDodinHier) {
    return std::max(caps.rel_tolerance, env);
  }
  if (is_mc_method(m)) {
    if (r.mean == 0.0) return std::numeric_limits<double>::infinity();
    return kZ95 * r.std_error / std::fabs(r.mean) + env;
  }
  return caps.rel_tolerance;
}

}  // namespace

PlannedResult Planner::run(const scenario::Scenario& sc,
                           const PlanBudget& budget, const EvalOptions& base,
                           Workspace& ws) const {
  if (!std::isfinite(budget.target_rel_err) ||
      !std::isfinite(budget.deadline_us) || budget.target_rel_err < 0.0 ||
      budget.deadline_us < 0.0) {
    throw std::invalid_argument(
        "exp::Planner::run: PlanBudget fields must be finite and >= 0");
  }
  if (budget.target_rel_err <= 0.0 && budget.deadline_us <= 0.0) {
    throw std::invalid_argument(
        "exp::Planner::run: PlanBudget needs target_rel_err or deadline_us");
  }
  const CostFeatures f = plan_features(sc);
  const double t = budget.target_rel_err;

  PlannedResult out;
  PlanReport& rep = out.report;

  // One attempted evaluation: apply the planned knobs on top of the
  // caller's base options, run, record the step, feed the EWMA.
  auto attempt = [&](PlanMethod m, std::size_t atoms,
                     std::uint64_t trials) -> EvalResult {
    const double predicted = model_.predict_us(m, f, atoms, trials);
    EvalOptions opt = base;
    if (m == PlanMethod::kSp || m == PlanMethod::kSpHier) {
      opt.sp_max_atoms = atoms;
    }
    if (m == PlanMethod::kDodin || m == PlanMethod::kDodinHier) {
      opt.dodin_atoms = atoms > 0 ? atoms : opt.dodin_atoms;
    }
    if (is_mc_method(m) && trials > 0) opt.mc_trials = trials;
    EvalResult r = evaluators_[idx(m)]->evaluate(sc, opt, ws);
    const double actual = r.seconds * 1e6;
    if (r.supported) model_.observe(m, predicted, actual);
    PlanStep step;
    step.method = m;
    step.predicted_us = predicted;
    step.actual_us = actual;
    step.max_atoms = atoms;
    step.mc_trials = trials;
    step.supported = r.supported;
    step.envelope_rel_width = envelope_rel_width(r);
    step.note = r.note;
    rep.steps.push_back(std::move(step));
    return r;
  };

  auto finish = [&](PlanMethod m, EvalResult&& r) {
    const PlanStep& last = rep.steps.back();
    rep.method = m;
    rep.method_name = plan_method_name(m);
    rep.predicted_us = last.predicted_us;
    rep.actual_us = last.actual_us;
    rep.predicted_rel_err = delivered_rel_err(m, caps_[idx(m)], r);
    rep.envelope_rel_width = last.envelope_rel_width;
    rep.max_atoms = last.max_atoms;
    rep.mc_trials = last.mc_trials;
    rep.met_deadline =
        budget.deadline_us <= 0.0 || rep.predicted_us <= budget.deadline_us;
    rep.met_target = t <= 0.0 || rep.predicted_rel_err <= t;
    out.result = std::move(r);
  };

  auto accepted = [&](PlanMethod m, const EvalResult& r) {
    return r.supported &&
           (t <= 0.0 || delivered_rel_err(m, caps_[idx(m)], r) <= t);
  };

  // ---- primary: attempt any feasible pick, trust-but-verify ------------
  // A feasible pick runs even when its coefficient is a default/proxy
  // (low confidence): accepted() checks DELIVERED accuracy, so an
  // uncalibrated exact/sp pick still serves tight targets — only a pick
  // that cannot meet the budget even by its own claim skips straight to
  // the escalation chain.
  const PlanChoice choice = select(f, budget);
  rep.low_confidence = choice.low_confidence;
  if (choice.feasible) {
    EvalResult r = attempt(choice.method, choice.max_atoms, choice.mc_trials);
    if (accepted(choice.method, r)) {
      finish(choice.method, std::move(r));
      return out;
    }
    // Certified method, envelope too wide: grow the atom budget — the
    // envelope width shrinks roughly as 1/atoms, so scale by the measured
    // overshoot (capped at 8x per round, 3 rounds).
    if (r.supported && is_certified_method(choice.method) && t > 0.0) {
      std::size_t atoms =
          choice.max_atoms > 0 ? choice.max_atoms : kAtomsStart;
      for (int round = 0; round < 3 && atoms < kAtomsCap; ++round) {
        const double width = envelope_rel_width(r);
        if (width <= 0.0) break;
        const double factor = std::clamp(width / t, 2.0, 8.0);
        atoms = std::min<std::size_t>(
            kAtomsCap,
            static_cast<std::size_t>(static_cast<double>(atoms) * factor));
        ++rep.escalations;
        r = attempt(choice.method, atoms, choice.mc_trials);
        if (accepted(choice.method, r)) {
          finish(choice.method, std::move(r));
          return out;
        }
        if (!r.supported) break;
      }
    }
    ++rep.escalations;
  }

  // ---- escalation chain: bounds bracket -> sp/dodin -> pilot-sized MC --
  // Every step is gated on the scenario's capabilities; any step that
  // meets the budget returns. The chain also serves deadline-only budgets
  // whose primary pick turned out unsupported.
  //
  // 1. Bounds bracket screen (two-state only): when the analytic
  //    [lower, upper] bracket is already narrower than the target, the
  //    midpoint is a certified answer at O(V+E) cost.
  if (t > 0.0 && !f.geometric && evaluators_[idx(PlanMethod::kBounds)] &&
      bounds_upper_ != nullptr) {
    const double predicted =
        2.0 * model_.predict_us(PlanMethod::kBounds, f, 0, 0);
    EvalResult lo = evaluators_[idx(PlanMethod::kBounds)]->evaluate(sc, base, ws);
    EvalResult hi = bounds_upper_->evaluate(sc, base, ws);
    PlanStep step;
    step.method = PlanMethod::kBounds;
    step.predicted_us = predicted;
    step.actual_us = (lo.seconds + hi.seconds) * 1e6;
    step.supported = lo.supported && hi.supported;
    if (step.supported && lo.mean > 0.0) {
      step.envelope_rel_width = (hi.mean - lo.mean) / lo.mean;
    }
    rep.steps.push_back(step);
    if (step.supported && hi.mean >= lo.mean &&
        (hi.mean - lo.mean) <= t * (hi.mean + lo.mean)) {
      // Midpoint error <= half the bracket width <= t * midpoint.
      EvalResult r;
      r.mean = 0.5 * (lo.mean + hi.mean);
      r.mean_lo = lo.mean;
      r.mean_hi = hi.mean;
      r.supported = true;
      r.seconds = lo.seconds + hi.seconds;
      r.note = "bounds bracket (lower/upper midpoint)";
      finish(PlanMethod::kBounds, std::move(r));
      return out;
    }
    ++rep.escalations;
  }

  // 2. Certified atom engine: exact sp when the DAG collapses, Dodin's
  //    bound otherwise (only useful when the target tolerates its bias).
  {
    const PlanMethod m = f.sp_feasible ? PlanMethod::kSp : PlanMethod::kDodin;
    const Capabilities& caps = caps_[idx(m)];
    const bool retry_ok = f.geometric ? caps.geometric : caps.two_state;
    const bool acc_ok =
        t <= 0.0 || m == PlanMethod::kSp || t >= caps.rel_tolerance;
    if (retry_ok && acc_ok) {
      std::size_t atoms = kAtomsStart;
      bool supported = true;
      for (int round = 0; round < 4; ++round) {
        EvalResult r = attempt(m, atoms, 0);
        if (accepted(m, r)) {
          finish(m, std::move(r));
          return out;
        }
        ++rep.escalations;
        supported = r.supported;
        if (!supported || atoms >= kAtomsCap) break;
        const double width = envelope_rel_width(r);
        const double factor =
            t > 0.0 && width > 0.0 ? std::clamp(width / t, 2.0, 8.0) : 2.0;
        atoms = std::min<std::size_t>(
            kAtomsCap,
            static_cast<std::size_t>(static_cast<double>(atoms) * factor));
      }
      // Small SP graphs have an exact answer (uncapped reduction,
      // atoms = 0) that beats MC's 1/sqrt(trials) wall for any tight
      // target; large ones would blow the uncapped atom arena.
      if (m == PlanMethod::kSp && supported && t > 0.0 && f.tasks <= 64) {
        EvalResult r = attempt(m, 0, 0);
        if (accepted(m, r)) {
          finish(m, std::move(r));
          return out;
        }
        ++rep.escalations;
      }
    }
  }

  // 3. Pilot-sized Monte-Carlo: the catalogue's universal fallback. The
  //    pilot measures the actual makespan variance and mc::plan_trials
  //    sizes the production run for the target at kTrialConfidence;
  //    a deadline caps the trial count by the model's per-trial cost.
  {
    const double rel = t > 0.0 ? t : kMcContractErr;
    mc::McConfig pilot_cfg;
    pilot_cfg.trials = kPilotTrials;
    pilot_cfg.seed = base.seed;
    pilot_cfg.threads = base.threads;
    const mc::PilotPlan plan =
        mc::plan_with_pilot(sc, rel, kTrialConfidence, pilot_cfg);
    std::uint64_t trials = std::min<std::uint64_t>(
        std::max<std::uint64_t>(plan.planned_trials, kPilotTrials),
        50'000'000);
    if (budget.deadline_us > 0.0) {
      const double per_trial = model_.predict_us(PlanMethod::kMc, f, 0, 1);
      if (per_trial > 0.0) {
        const double cap = std::max(100.0, budget.deadline_us / per_trial);
        trials = std::min(trials, static_cast<std::uint64_t>(
                                      std::min(cap, 50'000'000.0)));
      }
    }
    EvalResult r = attempt(PlanMethod::kMc, 0, trials);
    finish(PlanMethod::kMc, std::move(r));
    // The pilot's cost is part of the plan, not of the returned result.
    rep.steps.back().note = "pilot " + std::to_string(kPilotTrials) +
                            " trials -> planned " + std::to_string(trials);
  }
  return out;
}

PlannedResult Planner::run(const scenario::Scenario& sc,
                           const PlanBudget& budget,
                           const EvalOptions& base) const {
  return run(sc, budget, base, Workspace::local());
}

}  // namespace expmk::exp
