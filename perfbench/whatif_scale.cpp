// perfbench/whatif_scale.cpp
//
// whatif_scale — what-if queries against two large compiled scenarios:
// each op patches 1-4 tasks' rates or weights of a base scenario with
// Scenario::patch and re-runs the linear estimators plus a short
// Monte-Carlo on the clone. Every 4th op targets the series-parallel DAG
// and adds the hierarchical sp.hier / dodin.hier evaluators, which reuse
// the process-wide module memo warmed during set-up. After the timed
// loop a sample of ops is re-derived from a fresh Scenario::compile of
// the patched inputs and must match bit for bit (the patch == compile
// contract), and the loop itself must not have compiled anything.

#include <array>
#include <cmath>
#include <cstdio>
#include <utility>
#include <vector>

#include "common.hpp"
#include "core/failure_model.hpp"
#include "exp/hier.hpp"
#include "gen/lu.hpp"
#include "gen/random_dags.hpp"
#include "scenario/scenario.hpp"

namespace perfbench {
namespace {

using namespace expmk;

/// Method name, span name. The hier pair runs only on SP-target ops.
constexpr std::pair<const char*, const char*> kMethods[] = {
    {"fo", "core.fo"},
    {"sculli", "normal.sculli"},
    {"corlca", "normal.corlca"},
    {"bounds.lower", "core.bounds"},
    {"bounds.upper", "core.bounds"},
    {"mc", "mc.mc"},
    {"sp.hier", "exp.hier_sp"},
    {"dodin.hier", "exp.hier_dodin"},
};
constexpr std::size_t kMethodCount = std::size(kMethods);
constexpr std::size_t kLinearCount = 6;  // methods every op runs
constexpr std::size_t kLower = 3, kUpper = 4, kMc = 5;

constexpr double kPfail = 1e-2;
constexpr std::uint64_t kMcTrials = 200;
constexpr std::size_t kHierAtoms = 256;  // explicit sp.hier / dodin.hier budget
constexpr std::uint64_t kSampleEvery = 7;  // ops re-derived after the loop

using Answers = std::array<exp::EvalResult, kMethodCount>;

struct Target {
  graph::Dag dag;
  double lambda = 0.0;
  std::unique_ptr<scenario::Scenario> base;
};

/// One op's inputs: which target, and the patch applied to its base.
struct Patch {
  std::size_t target = 0;
  std::vector<graph::TaskId> tasks;
  std::vector<double> rates;    // empty for a weight patch
  std::vector<double> weights;  // empty for a rate patch
};

struct Sample {
  Patch patch;
  exp::EvalOptions options;
  Answers answers;
};

class WhatifScale final : public Workload {
 public:
  explicit WhatifScale(const Options& opt) : opt_(opt) {
    const auto& reg = exp::EvaluatorRegistry::builtin();
    for (std::size_t m = 0; m < kMethodCount; ++m) {
      evaluators_[m] = reg.find(kMethods[m].first);
    }
  }

  void setup() override {
    exp::hier::memo_clear();
    targets_[0].dag = gen::lu_dag(40);
    targets_[1].dag = gen::tiled_fork_join(50, 40, 10, mix(opt_.seed, 7));
    for (Target& t : targets_) {
      t.lambda = core::calibrate(t.dag, kPfail).lambda;
      t.base = std::make_unique<scenario::Scenario>(scenario::Scenario::compile(
          t.dag, scenario::FailureSpec::uniform(t.lambda)));
    }
    // The cold hierarchical build (module memo) belongs in set-up.
    const exp::EvalOptions options = options_for(0);
    for (std::size_t m = kLinearCount; m < kMethodCount; ++m) {
      (void)evaluators_[m]->evaluate(*targets_[1].base, options);
    }
  }

  PhaseResult run(double seconds, Tracer& tr) override {
    dispatch_us_.clear();
    envelope_.clear();
    ns_per_task_trial_.clear();
    const std::uint64_t compiles0 = scenario::Scenario::compiled_count();
    const std::uint64_t patches0 = scenario::Scenario::patched_count();
    const exp::hier::MemoStats memo0 = exp::hier::memo_stats();

    std::vector<Sample> samples;
    PhaseResult out;
    SpeedWindows windows(out);
    Answers answers;
    const auto deadline = now_ns() + static_cast<std::int64_t>(seconds * 1e9);
    // Op ids continue across phases, so no phase repeats another's patches.
    for (std::uint64_t op = next_op_; now_ns() < deadline; op = ++next_op_) {
      windows.open();
      const Patch patch = make_patch(op);
      const Target& target = targets_[patch.target];
      const exp::EvalOptions options = options_for(op);
      const std::size_t methods =
          patch.target == 1 ? kMethodCount : kLinearCount;
      tr.set_op(op);
      const std::int64_t t0 = now_ns();
      {
        const Tracer::Scope op_span(tr, "op");
        const auto sc = [&] {
          const Tracer::Scope span(tr, "scenario.patch");
          return target.base->patch(patch.tasks, patch.rates, patch.weights);
        }();
        for (std::size_t m = 0; m < methods; ++m) {
          answers[m] = traced_evaluate(tr, kMethods[m].second,
                                       *evaluators_[m], sc, options,
                                       dispatch_us_);
        }
        if (tr.on()) {
          ns_per_task_trial_.push_back(
              answers[kMc].seconds * 1e9 /
              (static_cast<double>(kMcTrials) *
               static_cast<double>(sc.task_count())));
        }
      }
      out.latency_us.push_back(static_cast<double>(now_ns() - t0) * 1e-3);
      ++out.ops;
      bool ok = answers[kLower].mean <= answers[kUpper].mean;
      for (std::size_t m = 0; m < methods; ++m) ok = ok && sane(answers[m]);
      if (!ok) ++out.failed;
      if (tr.on() && methods == kMethodCount) {
        for (std::size_t m = kLinearCount; m < kMethodCount; ++m) {
          envelope_.push_back((answers[m].mean_hi - answers[m].mean_lo) /
                              answers[m].mean);
        }
      }
      if (op % kSampleEvery == 0) {
        samples.push_back({patch, options, answers});
      }
      windows.close();
    }

    compiles_ = scenario::Scenario::compiled_count() - compiles0;
    patches_ = scenario::Scenario::patched_count() - patches0;
    const exp::hier::MemoStats memo1 = exp::hier::memo_stats();
    memo_hits_ = memo1.hits - memo0.hits;
    memo_misses_ = memo1.misses - memo0.misses;
    memo_entries_ = static_cast<double>(memo1.entries) -
                    static_cast<double>(memo0.entries);
    if (compiles_ != 0) {
      std::fprintf(stderr, "whatif_scale: %llu compiles in the timed loop\n",
                   static_cast<unsigned long long>(compiles_));
      ++out.failed;
    }
    if (opt_.corrupt_reference && !samples.empty()) {
      samples.front().answers[0].mean = next_up(samples.front().answers[0].mean);
    }
    for (const Sample& s : samples) {
      if (!rederive_matches(s)) ++out.failed;
    }
    return out;
  }

  void layers(const Tracer& tr, Metrics& out) override {
    const double memo_lookups = static_cast<double>(memo_hits_ + memo_misses_);
    out.push_back({"scenario.patch_us", median(tr.self_us("scenario.patch")), "us"});
    out.push_back({"scenario.compiles", static_cast<double>(compiles_), "count"});
    out.push_back({"scenario.patches", static_cast<double>(patches_), "count"});
    out.push_back({"core.fo_us", median(tr.self_us("core.fo")), "us"});
    out.push_back({"core.bounds_us", median(tr.self_us("core.bounds")), "us"});
    out.push_back({"normal.sculli_us", median(tr.self_us("normal.sculli")), "us"});
    out.push_back({"normal.corlca_us", median(tr.self_us("normal.corlca")), "us"});
    out.push_back({"prob.envelope_rel_width", median(envelope_), "frac"});
    out.push_back({"mc.mc_us", median(tr.self_us("mc.mc")), "us"});
    out.push_back({"mc.ns_per_task_trial", median(ns_per_task_trial_), "ns"});
    out.push_back({"exp.hier_sp_us", median(tr.self_us("exp.hier_sp")), "us"});
    out.push_back({"exp.hier_dodin_us", median(tr.self_us("exp.hier_dodin")), "us"});
    out.push_back({"exp.hier_memo_hit_frac",
                   memo_lookups > 0 ? static_cast<double>(memo_hits_) / memo_lookups : 0.0,
                   "frac"});
    out.push_back({"exp.hier_memo_entries", memo_entries_, "count"});
    out.push_back({"exp.dispatch_us", median(dispatch_us_), "us"});
  }

 private:
  exp::EvalOptions options_for(std::uint64_t op) const {
    exp::EvalOptions o;
    o.threads = 1;
    o.mc_trials = kMcTrials;
    o.seed = mix(opt_.seed, op);
    o.sp_max_atoms = kHierAtoms;
    o.dodin_atoms = kHierAtoms;
    return o;
  }

  /// 1-4 distinct seed-chosen tasks of the op's target, with new rates
  /// (0.5x-4x the base rate) or new weights (0.5x-2x the base weight).
  /// Target, task count and patch kind cycle with the op id, so every
  /// run holds the same mix of op shapes.
  Patch make_patch(std::uint64_t op) const {
    Patch p;
    p.target = op % 4 == 3 ? 1 : 0;
    const graph::Dag& dag = targets_[p.target].dag;
    const std::uint64_t r = mix(opt_.seed ^ 0x5eed, op);
    const std::size_t k = 1 + (op / 4) % 4;
    const bool rates = (op / 16) % 2 == 0;
    for (std::size_t j = 0; p.tasks.size() < k; ++j) {
      const auto id =
          static_cast<graph::TaskId>(mix(r, j) % dag.task_count());
      bool fresh = true;
      for (const graph::TaskId t : p.tasks) fresh = fresh && t != id;
      if (!fresh) continue;
      p.tasks.push_back(id);
      const double u = unit(mix(r, 100 + j));
      if (rates) {
        p.rates.push_back(targets_[p.target].lambda * (0.5 + 3.5 * u));
      } else {
        p.weights.push_back(dag.weight(id) * (0.5 + 1.5 * u));
      }
    }
    return p;
  }

  /// Re-derives a sampled op from a fresh compile of its patched inputs.
  bool rederive_matches(const Sample& s) const {
    const Target& target = targets_[s.patch.target];
    graph::Dag dag = target.dag;
    for (std::size_t j = 0; j < s.patch.weights.size(); ++j) {
      dag.set_weight(s.patch.tasks[j], s.patch.weights[j]);
    }
    scenario::FailureSpec failure = scenario::FailureSpec::uniform(target.lambda);
    if (!s.patch.rates.empty()) {
      std::vector<double> rates(dag.task_count(), target.lambda);
      for (std::size_t j = 0; j < s.patch.rates.size(); ++j) {
        rates[s.patch.tasks[j]] = s.patch.rates[j];
      }
      failure = scenario::FailureSpec::per_task(std::move(rates));
    }
    const auto sc = scenario::Scenario::compile(dag, std::move(failure));
    const std::size_t methods =
        s.patch.target == 1 ? kMethodCount : kLinearCount;
    for (std::size_t m = 0; m < methods; ++m) {
      const exp::EvalResult fresh = evaluators_[m]->evaluate(sc, s.options);
      if (!same_result(fresh, s.answers[m])) {
        std::fprintf(stderr, "whatif_scale: %s differs from a fresh compile\n",
                     kMethods[m].first);
        return false;
      }
    }
    return true;
  }

  Options opt_;
  std::array<const exp::Evaluator*, kMethodCount> evaluators_{};
  std::array<Target, 2> targets_;  // [0] LU k=40, [1] tiled fork-join
  std::uint64_t next_op_ = 0;

  // Phase accounting (the traced phase's values feed layers()).
  std::vector<double> dispatch_us_;
  std::vector<double> envelope_;
  std::vector<double> ns_per_task_trial_;
  std::uint64_t compiles_ = 0, patches_ = 0;
  std::uint64_t memo_hits_ = 0, memo_misses_ = 0;
  double memo_entries_ = 0.0;
};

}  // namespace

std::unique_ptr<Workload> make_whatif_scale(const Options& opt) {
  return std::make_unique<WhatifScale>(opt);
}

}  // namespace perfbench
