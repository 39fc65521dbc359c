// bench/bench_corpus.cpp
//
// The query planner's cost corpus: the per-call wall time of each
// registry evaluator on the cells bench/fit_cost_model.py fits the
// planner's per-method coefficients from. Every cell is timed through
// Evaluator::evaluate(sc, opt, ws), the call the planner predicts, at
// threads = 1 on a warm workspace. One sample times a batch of calls,
// doubled from one call until the batch takes at least kSampleUs (so the
// two clock reads stay under 1% of a sub-microsecond cell's sample), and
// reads the batch's mean per call; these doubling calls also warm the
// workspace. A row's `us` is the median sample, so one preempted batch
// cannot move it, and `us_q1`/`us_q3` are the quartiles that show the
// spread. Emits BENCH_corpus.json, whose rows carry the fit's tuple
// (method, us, tasks, edges, atoms, trials) plus the two quartiles.
//
// The cells: fo/so/corlca/clark on Erdos DAGs of 20..100 tasks (the
// serving regime), the closed forms and a 2,000-trial mc on LU k=10, the
// paper's 300k-trial geometric mc on LU k=14, and sp/dodin at their
// atom budgets on series-parallel and general DAGs.
//
//   ./bench_corpus [reps]   (samples per cell, default 200; the mc, sp
//                            and dodin cells take reps/10 samples, the
//                            300k-trial mc cell one)

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "exp/evaluator.hpp"
#include "exp/plan.hpp"
#include "exp/workspace.hpp"
#include "gen/lu.hpp"
#include "gen/random_dags.hpp"
#include "scenario/scenario.hpp"
#include "util/simd.hpp"
#include "util/timer.hpp"

namespace {

using namespace expmk;

double checksum_guard = 0.0;  // keeps the timed calls from eliding

/// The shortest timed batch: a steady_clock read costs ~25 ns.
constexpr double kSampleUs = 10.0;

/// The q-quantile of ascending `xs`, interpolated between the two
/// nearest ranks.
double quantile(const std::vector<double>& xs, double q) {
  const double rank = q * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  return xs[lo] + (rank - static_cast<double>(lo)) * (xs[hi] - xs[lo]);
}

/// Takes `samples` timed batches of `evaluator` on `sc` and returns the
/// corpus row. `atoms` is the sp/dodin budget, `trials` the mc trial
/// count (0 where the method reads neither).
bench::JsonWriter time_cell(const scenario::Scenario& sc,
                            const char* evaluator, std::size_t atoms,
                            std::uint64_t trials, std::uint64_t samples) {
  const exp::Evaluator& e = *exp::EvaluatorRegistry::builtin().find(evaluator);
  exp::EvalOptions opt;
  opt.threads = 1;
  opt.seed = 2016;
  opt.sp_max_atoms = atoms;
  opt.dodin_atoms = atoms;
  if (trials > 0) opt.mc_trials = trials;

  exp::Workspace ws;
  const exp::EvalResult warm = e.evaluate(sc, opt, ws);
  if (!warm.supported) {
    std::fprintf(stderr,
                 "bench_corpus: %s unsupported on a %zu-task cell: %s\n",
                 evaluator, sc.task_count(), warm.note.c_str());
    std::exit(1);
  }
  // Mean microseconds per call over one batch of `batch` calls.
  const auto time_batch = [&](std::uint64_t batch) {
    const util::Timer timer;
    for (std::uint64_t i = 0; i < batch; ++i) {
      checksum_guard += e.evaluate(sc, opt, ws).mean;
    }
    return timer.seconds() * 1e6 / static_cast<double>(batch);
  };
  std::uint64_t batch = 1;
  while (time_batch(batch) * static_cast<double>(batch) < kSampleUs) {
    batch *= 2;
  }
  std::vector<double> us_per_call(samples);
  for (double& sample : us_per_call) sample = time_batch(batch);
  std::sort(us_per_call.begin(), us_per_call.end());
  const double us = quantile(us_per_call, 0.5);
  const double q1 = quantile(us_per_call, 0.25);
  const double q3 = quantile(us_per_call, 0.75);

  // The fit keys rows by planner method ("bounds" for bounds.lower).
  const std::string method(
      exp::plan_method_name(exp::plan_method_from_name(evaluator)));
  std::printf("  %-7s %5zu tasks %5zu edges %4zu atoms %7llu trials "
              "%12.2f us  [%.2f, %.2f]  (%llu x %llu calls)\n",
              method.c_str(), sc.task_count(),
              sc.dag().edge_count(), atoms,
              static_cast<unsigned long long>(trials), us, q1, q3,
              static_cast<unsigned long long>(samples),
              static_cast<unsigned long long>(batch));
  bench::JsonWriter row;
  row.field("method", method)
      .field("us", us)
      .field("us_q1", q1)
      .field("us_q3", q3)
      .field("tasks", sc.task_count())
      .field("edges", sc.dag().edge_count())
      .field("atoms", atoms)
      .field("trials", trials);
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  const char* usage = "bench_corpus [reps >= 1]";
  if (argc > 2) bench::usage_exit(usage, argv[2]);
  const std::uint64_t reps = bench::count_arg(argc, argv, 1, 200, usage);
  const std::uint64_t heavy = std::max<std::uint64_t>(1, reps / 10);
  using scenario::Scenario;

  std::printf("bench_corpus: %llu reps, threads 1, warm workspace\n",
              static_cast<unsigned long long>(reps));
  std::vector<bench::JsonWriter> rows;
  for (const int n : {20, 60, 100}) {
    const auto sc =
        Scenario::calibrated(gen::erdos_dag(n, 0.2, 1234 + n), 1e-3);
    for (const char* m : {"fo", "so", "corlca", "clark"}) {
      rows.push_back(time_cell(sc, m, 0, 0, reps));
    }
  }
  {
    const auto sc = Scenario::calibrated(gen::lu_dag(10), 1e-3);
    for (const char* m : {"fo", "so", "sculli", "corlca", "bounds.lower"}) {
      rows.push_back(time_cell(sc, m, 0, 0, reps));
    }
    rows.push_back(time_cell(sc, "mc", 0, 2'000, heavy));
  }
  rows.push_back(time_cell(Scenario::calibrated(gen::lu_dag(14), 1e-2,
                                                core::RetryModel::Geometric),
                           "mc", 0, 300'000, 1));
  for (const auto& [n, seed] : {std::pair{60, 7}, std::pair{200, 9}}) {
    rows.push_back(time_cell(
        Scenario::calibrated(gen::random_series_parallel(n, seed), 1e-2), "sp",
        64, 0, heavy));
  }
  for (const graph::Dag& g : {gen::lu_dag(4), gen::erdos_dag(30, 0.2, 5)}) {
    rows.push_back(
        time_cell(Scenario::calibrated(g, 1e-2), "dodin", 128, 0, heavy));
  }

  bench::JsonWriter out;
  out.field("bench", "corpus")
      .field("backend", util::simd::name(util::simd::active()))
      .field("reps", reps)
      .array("rows", rows);
  out.write_file("BENCH_corpus.json");
  std::printf("wrote BENCH_corpus.json (checksum %g)\n", checksum_guard);
  return 0;
}
