// bench/bench_scenario.cpp
//
// Compiled-vs-per-call microbenchmark for the Scenario redesign: the cost
// of evaluating one (DAG, pfail) cell with every method through
//
//   (a) the compile-per-call path — Scenario::compile then
//       evaluate(scenario, opt) for EVERY call (CSR build, topo sort, one
//       exp/log1p pair per task each time), and
//   (b) the compile-once path — one Scenario::compile, then
//       evaluate(scenario, opt) repeatedly,
//
// plus Scenario::compiled_count() deltas proving (b) really compiles once.
// Emits BENCH_scenario.json so the re-preprocessing win is tracked from
// this PR onward. The cheap closed-form methods (fo, sculli, corlca,
// bounds) are the interesting rows: there the per-cell preprocessing IS
// the dominant cost, which is exactly the serving workload (many methods /
// repeated queries on one compiled cell) the redesign targets.
//
//   ./bench_scenario [reps] [k] [pfail]   (defaults: 200, 10, 0.001)

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/failure_model.hpp"
#include "exp/evaluator.hpp"
#include "gen/lu.hpp"
#include "scenario/scenario.hpp"
#include "util/timer.hpp"

namespace {

using namespace expmk;

double checksum_guard = 0.0;  // keeps the evaluation loops from eliding

struct MethodRow {
  std::string name;
  double per_call_us = 0.0;
  double compiled_us = 0.0;
  double speedup = 0.0;
  std::uint64_t per_call_compiles = 0;
  std::uint64_t compiled_compiles = 0;
};

}  // namespace

int main(int argc, char** argv) {
  const char* usage = "bench_scenario [reps >= 1] [k >= 1] [pfail in (0,1)]";
  const std::uint64_t reps = bench::count_arg(argc, argv, 1, 200, usage);
  const int k = static_cast<int>(bench::count_arg(argc, argv, 2, 10, usage));
  const double pfail = bench::pfail_arg(argc, argv, 3, 0.001, usage);

  const auto g = gen::lu_dag(k);
  const auto model = core::calibrate(g, pfail);
  const auto retry = core::RetryModel::TwoState;
  std::printf("bench_scenario: LU k=%d (%zu tasks, %zu edges), pfail=%g, "
              "%llu reps/method\n",
              k, g.task_count(), g.edge_count(), pfail,
              static_cast<unsigned long long>(reps));

  exp::EvalOptions opt;
  opt.mc_trials = 2'000;  // keep the stochastic row bounded
  opt.threads = 1;

  const auto& reg = exp::EvaluatorRegistry::builtin();
  const std::vector<std::string> methods = {"fo",     "so",           "sculli",
                                            "corlca", "bounds.lower", "mc"};

  std::vector<MethodRow> rows;
  for (const std::string& name : methods) {
    const exp::Evaluator* e = reg.find(name);
    MethodRow row;
    row.name = name;

    // (a) per-call: compile a scenario for every evaluate().
    {
      const std::uint64_t before = scenario::Scenario::compiled_count();
      const util::Timer timer;
      for (std::uint64_t i = 0; i < reps; ++i) {
        checksum_guard +=
            e->evaluate(scenario::Scenario::compile(g, model, retry), opt)
                .mean;
      }
      row.per_call_us = timer.seconds() * 1e6 / static_cast<double>(reps);
      row.per_call_compiles = scenario::Scenario::compiled_count() - before;
    }

    // (b) compiled once, shared by every call.
    {
      const std::uint64_t before = scenario::Scenario::compiled_count();
      const scenario::Scenario sc =
          scenario::Scenario::compile(g, model, retry);
      const util::Timer timer;
      for (std::uint64_t i = 0; i < reps; ++i) {
        checksum_guard += e->evaluate(sc, opt).mean;
      }
      row.compiled_us = timer.seconds() * 1e6 / static_cast<double>(reps);
      row.compiled_compiles = scenario::Scenario::compiled_count() - before;
    }

    row.speedup = row.compiled_us > 0.0 ? row.per_call_us / row.compiled_us
                                        : 0.0;
    std::printf("  %-14s per-call %9.1f us (%llu compiles)   compiled "
                "%9.1f us (%llu compile)   speedup %5.2fx\n",
                row.name.c_str(), row.per_call_us,
                static_cast<unsigned long long>(row.per_call_compiles),
                row.compiled_us,
                static_cast<unsigned long long>(row.compiled_compiles),
                row.speedup);
    rows.push_back(row);
  }

  // One compile per cell, however many methods run on it — the contract
  // the sweep runner relies on (tests/test_scenario.cpp pins it; here we
  // surface the counters for the artifact).
  std::vector<bench::JsonWriter> method_rows;
  method_rows.reserve(rows.size());
  for (const MethodRow& row : rows) {
    bench::JsonWriter w;
    w.field("method", row.name)
        .field("per_call_us", row.per_call_us)
        .field("compiled_us", row.compiled_us)
        .field("speedup", row.speedup)
        .field("per_call_compiles", row.per_call_compiles)
        .field("compiled_compiles", row.compiled_compiles);
    method_rows.push_back(std::move(w));
  }

  bench::JsonWriter out;
  out.field("bench", "scenario_compile_once")
      .field("dag", "lu")
      .field("k", k)
      .field("tasks", g.task_count())
      .field("edges", g.edge_count())
      .field("pfail", pfail)
      .field("retry", "two_state")
      .field("reps", reps)
      .field("mc_trials", opt.mc_trials)
      .array("methods", method_rows);
  out.write_file("BENCH_scenario.json");
  std::printf("  wrote BENCH_scenario.json (checksum %g)\n", checksum_guard);
  return 0;
}
