// perfbench/paper_grid.cpp
//
// paper_grid — the paper's own experiment, one cell per op: compile a
// Scenario for one (DAG, pfail) combination of {LU k=8, QR k=8,
// Cholesky k=10} x {1e-3, 1e-2, 1e-1}, then run the paper's estimator
// catalogue on it single-threaded. The cells are visited in a
// seed-shuffled round robin, so every cell carries the same weight in
// every run. Every answer must be bit-identical to an untimed cold
// evaluation of the same cell made during set-up.

#include <array>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <utility>
#include <vector>

#include "common.hpp"
#include "core/failure_model.hpp"
#include "gen/cholesky.hpp"
#include "gen/lu.hpp"
#include "gen/qr.hpp"
#include "scenario/scenario.hpp"

namespace perfbench {
namespace {

using namespace expmk;

/// Method name, span name.
constexpr std::pair<const char*, const char*> kMethods[] = {
    {"fo", "core.fo"},
    {"so", "core.so"},
    {"sculli", "normal.sculli"},
    {"corlca", "normal.corlca"},
    {"clark", "normal.clark"},
    {"bounds.lower", "core.bounds"},
    {"bounds.upper", "core.bounds"},
    {"dodin", "spgraph.dodin"},
    {"mc", "mc.mc"},
};
constexpr std::size_t kMethodCount = std::size(kMethods);
constexpr std::size_t kLower = 5, kUpper = 6, kDodin = 7, kMc = 8;

constexpr double kPfails[] = {1e-3, 1e-2, 1e-1};
constexpr std::uint64_t kMcTrials = 20'000;
constexpr std::size_t kDodinAtoms = 256;

using Answers = std::array<exp::EvalResult, kMethodCount>;

struct Cell {
  std::size_t dag = 0;
  scenario::FailureSpec failure;
  exp::EvalOptions options;
  Answers reference;
};

class PaperGrid final : public Workload {
 public:
  explicit PaperGrid(const Options& opt) : opt_(opt) {
    const auto& reg = exp::EvaluatorRegistry::builtin();
    for (std::size_t m = 0; m < kMethodCount; ++m) {
      evaluators_[m] = reg.find(kMethods[m].first);
    }
  }

  void setup() override {
    dags_.clear();
    dags_.push_back(gen::lu_dag(8));
    dags_.push_back(gen::qr_dag(8));
    dags_.push_back(gen::cholesky_dag(10));
    cells_.clear();
    for (std::size_t d = 0; d < dags_.size(); ++d) {
      for (const double pfail : kPfails) {
        Cell cell;
        cell.dag = d;
        cell.failure = scenario::FailureSpec(core::calibrate(dags_[d], pfail));
        cell.options.threads = 1;
        cell.options.mc_trials = kMcTrials;
        cell.options.dodin_atoms = kDodinAtoms;
        cell.options.seed = mix(opt_.seed, cells_.size());
        // The reference: a cold evaluation on a fresh compile and a
        // fresh workspace.
        const auto sc = scenario::Scenario::compile(dags_[d], cell.failure);
        for (std::size_t m = 0; m < kMethodCount; ++m) {
          exp::Workspace ws;
          cell.reference[m] = evaluators_[m]->evaluate(sc, cell.options, ws);
        }
        cells_.push_back(std::move(cell));
      }
    }
    if (opt_.corrupt_reference) {
      auto& ref = cells_.front().reference[0];
      ref.mean = next_up(ref.mean);
    }
    order_.resize(cells_.size());
    std::iota(order_.begin(), order_.end(), std::size_t{0});
    for (std::size_t i = order_.size(); i > 1; --i) {
      std::swap(order_[i - 1], order_[mix(opt_.seed, 1000 + i) % i]);
    }
  }

  PhaseResult run(double seconds, Tracer& tr) override {
    dispatch_us_.clear();
    envelope_.clear();
    ns_per_task_trial_.clear();
    const std::uint64_t compiles0 = scenario::Scenario::compiled_count();
    const std::uint64_t patches0 = scenario::Scenario::patched_count();

    PhaseResult out;
    SpeedWindows windows(out);
    Answers answers;
    const auto deadline = now_ns() + static_cast<std::int64_t>(seconds * 1e9);
    for (std::uint64_t op = 0; now_ns() < deadline; ++op) {
      const Cell& cell = cells_[order_[op % order_.size()]];
      tr.set_op(op);
      windows.open();
      const std::int64_t t0 = now_ns();
      {
        const Tracer::Scope op_span(tr, "op");
        const auto sc = [&] {
          const Tracer::Scope span(tr, "scenario.compile");
          return scenario::Scenario::compile(dags_[cell.dag], cell.failure);
        }();
        for (std::size_t m = 0; m < kMethodCount; ++m) {
          answers[m] = traced_evaluate(tr, kMethods[m].second,
                                       *evaluators_[m], sc, cell.options,
                                       dispatch_us_);
        }
        if (tr.on()) {
          const Answers::value_type& mc = answers[kMc];
          ns_per_task_trial_.push_back(
              mc.seconds * 1e9 /
              (static_cast<double>(kMcTrials) *
               static_cast<double>(sc.task_count())));
        }
      }
      out.latency_us.push_back(static_cast<double>(now_ns() - t0) * 1e-3);
      ++out.ops;
      if (!check(answers, cell.reference)) ++out.failed;
      if (tr.on()) {
        const auto& d = answers[kDodin];
        envelope_.push_back((d.mean_hi - d.mean_lo) / d.mean);
      }
      windows.close();
    }
    compiles_ = scenario::Scenario::compiled_count() - compiles0;
    patches_ = scenario::Scenario::patched_count() - patches0;
    return out;
  }

  void layers(const Tracer& tr, Metrics& out) override {
    out.push_back({"scenario.compile_us", median(tr.self_us("scenario.compile")), "us"});
    out.push_back({"scenario.compiles", static_cast<double>(compiles_), "count"});
    out.push_back({"scenario.patches", static_cast<double>(patches_), "count"});
    out.push_back({"core.fo_us", median(tr.self_us("core.fo")), "us"});
    out.push_back({"core.so_us", median(tr.self_us("core.so")), "us"});
    out.push_back({"core.bounds_us", median(tr.self_us("core.bounds")), "us"});
    out.push_back({"normal.sculli_us", median(tr.self_us("normal.sculli")), "us"});
    out.push_back({"normal.corlca_us", median(tr.self_us("normal.corlca")), "us"});
    out.push_back({"normal.clark_us", median(tr.self_us("normal.clark")), "us"});
    out.push_back({"spgraph.dodin_us", median(tr.self_us("spgraph.dodin")), "us"});
    out.push_back({"prob.envelope_rel_width", median(envelope_), "frac"});
    out.push_back({"mc.mc_us", median(tr.self_us("mc.mc")), "us"});
    out.push_back({"mc.ns_per_task_trial", median(ns_per_task_trial_), "ns"});
    out.push_back({"exp.dispatch_us", median(dispatch_us_), "us"});
  }

 private:
  /// Every answer supported and finite, the bounds ordered, and each
  /// bit-identical to the cell's cold reference.
  static bool check(const Answers& got, const Answers& ref) {
    bool ok = got[kLower].mean <= got[kUpper].mean;
    for (std::size_t m = 0; m < kMethodCount; ++m) {
      ok = ok && sane(got[m]) && same_result(got[m], ref[m]);
    }
    return ok;
  }

  Options opt_;
  std::array<const exp::Evaluator*, kMethodCount> evaluators_{};
  std::vector<graph::Dag> dags_;
  std::vector<Cell> cells_;
  std::vector<std::size_t> order_;

  // Traced-phase accounting.
  std::vector<double> dispatch_us_;
  std::vector<double> envelope_;
  std::vector<double> ns_per_task_trial_;
  std::uint64_t compiles_ = 0, patches_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_paper_grid(const Options& opt) {
  return std::make_unique<PaperGrid>(opt);
}

}  // namespace perfbench
