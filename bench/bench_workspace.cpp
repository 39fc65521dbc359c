// bench/bench_workspace.cpp
//
// Pooled-vs-per-call microbenchmark for the workspace-pooled evaluation
// engine: the cost of one analytic evaluation of a compiled scenario
// through three paths, over {fo, so, corlca, clark} x DAG sizes:
//
//   (a) legacy   — Scenario::compile then evaluate(sc, opt) for EVERY
//                  call: the compile-per-call cost structure, kept for
//                  scale (reported under the `legacy_*` JSON keys);
//   (b) per_call — evaluate(sc, opt, fresh Workspace): the compiled
//                  scenario is shared but every call pays cold arenas;
//   (c) pooled   — evaluate(sc, opt, warm Workspace): the steady-state
//                  serving path, zero allocations per call.
//
// Emits BENCH_workspace.json (speedup = per_call_us / pooled_us,
// legacy_speedup = legacy_us / pooled_us) so the amortization win is
// tracked from this PR onward. The interesting rows are the small-to-mid
// DAGs: there the scratch allocation IS a large share of the work, which
// is exactly the high-traffic regime (millions of cheap evaluations of a
// fixed graph) the workspace engine targets.
//
//   ./bench_workspace [reps] [pfail]   (defaults: 2000, 0.001)

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/failure_model.hpp"
#include "exp/evaluator.hpp"
#include "exp/workspace.hpp"
#include "gen/random_dags.hpp"
#include "scenario/scenario.hpp"
#include "util/timer.hpp"

namespace {

using namespace expmk;

double checksum_guard = 0.0;  // keeps the evaluation loops from eliding

struct Row {
  std::string method;
  std::size_t tasks = 0;
  std::size_t edges = 0;
  double legacy_us = 0.0;
  double per_call_us = 0.0;
  double pooled_us = 0.0;
  double pooled_evals_per_sec = 0.0;
  double speedup = 0.0;         // per_call / pooled
  double legacy_speedup = 0.0;  // legacy / pooled
};

}  // namespace

int main(int argc, char** argv) {
  const char* usage = "bench_workspace [reps >= 1] [pfail in (0,1)]";
  const std::uint64_t reps = bench::count_arg(argc, argv, 1, 2000, usage);
  const double pfail = bench::pfail_arg(argc, argv, 2, 0.001, usage);

  // Erdos task counts give direct control of "<= 100-task DAGs", the
  // serving regime the acceptance bar names.
  const std::vector<int> sizes = {20, 60, 100};
  const std::vector<std::string> methods = {"fo", "so", "corlca", "clark"};
  const auto& reg = exp::EvaluatorRegistry::builtin();
  const auto retry = core::RetryModel::TwoState;

  exp::EvalOptions opt;
  opt.threads = 1;

  std::printf("bench_workspace: erdos DAGs, pfail=%g, %llu reps/method\n",
              pfail, static_cast<unsigned long long>(reps));

  std::vector<Row> rows;
  for (const int n : sizes) {
    const auto g = gen::erdos_dag(n, 0.2, 1234 + n);
    const auto model = core::calibrate(g, pfail);
    const auto sc = scenario::Scenario::compile(g, model, retry);

    for (const std::string& name : methods) {
      const exp::Evaluator* e = reg.find(name);
      Row row;
      row.method = name;
      row.tasks = g.task_count();
      row.edges = g.edge_count();

      // (a) compile per call. The second-order pair sweep makes
      // full reps expensive at n=100; scale the rep count down — timings
      // are per-call averages either way.
      const std::uint64_t legacy_reps = std::max<std::uint64_t>(reps / 10, 1);
      {
        const util::Timer timer;
        for (std::uint64_t i = 0; i < legacy_reps; ++i) {
          checksum_guard +=
              e->evaluate(scenario::Scenario::compile(g, model, retry), opt)
                  .mean;
        }
        row.legacy_us =
            timer.seconds() * 1e6 / static_cast<double>(legacy_reps);
      }

      // (b) compiled scenario, cold workspace per call.
      {
        const util::Timer timer;
        for (std::uint64_t i = 0; i < reps; ++i) {
          exp::Workspace cold;
          checksum_guard += e->evaluate(sc, opt, cold).mean;
        }
        row.per_call_us = timer.seconds() * 1e6 / static_cast<double>(reps);
      }

      // (c) compiled scenario, one warm pooled workspace.
      {
        exp::Workspace pooled;
        checksum_guard += e->evaluate(sc, opt, pooled).mean;  // warm-up
        const util::Timer timer;
        for (std::uint64_t i = 0; i < reps; ++i) {
          checksum_guard += e->evaluate(sc, opt, pooled).mean;
        }
        const double seconds = timer.seconds();
        row.pooled_us = seconds * 1e6 / static_cast<double>(reps);
        row.pooled_evals_per_sec =
            seconds > 0.0 ? static_cast<double>(reps) / seconds : 0.0;
      }

      row.speedup =
          row.pooled_us > 0.0 ? row.per_call_us / row.pooled_us : 0.0;
      row.legacy_speedup =
          row.pooled_us > 0.0 ? row.legacy_us / row.pooled_us : 0.0;
      std::printf(
          "  n=%3zu %-8s legacy %9.2f us   per-call %9.2f us   pooled "
          "%9.2f us (%.0f evals/s)   speedup %5.2fx (vs legacy %6.2fx)\n",
          row.tasks, row.method.c_str(), row.legacy_us, row.per_call_us,
          row.pooled_us, row.pooled_evals_per_sec, row.speedup,
          row.legacy_speedup);
      rows.push_back(row);
    }
  }

  std::vector<bench::JsonWriter> json_rows;
  json_rows.reserve(rows.size());
  for (const Row& row : rows) {
    bench::JsonWriter w;
    w.field("method", row.method)
        .field("tasks", row.tasks)
        .field("edges", row.edges)
        .field("legacy_us", row.legacy_us)
        .field("per_call_us", row.per_call_us)
        .field("pooled_us", row.pooled_us)
        .field("pooled_evals_per_sec", row.pooled_evals_per_sec)
        .field("speedup", row.speedup)
        .field("legacy_speedup", row.legacy_speedup);
    json_rows.push_back(std::move(w));
  }

  bench::JsonWriter out;
  out.field("bench", "workspace_pooled_vs_per_call")
      .field("dag", "erdos")
      .field("pfail", pfail)
      .field("retry", "two_state")
      .field("reps", reps)
      .array("rows", json_rows);
  out.write_file("BENCH_workspace.json");
  std::printf("  wrote BENCH_workspace.json (checksum %g)\n",
              checksum_guard);
  return 0;
}
