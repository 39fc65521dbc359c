// bench/bench_mc.cpp
//
// Monte-Carlo trial-throughput benchmark: what the `mc` estimator runs
// (run_monte_carlo at one thread: the trial-lane kernel plus the chunk
// accumulators) vs the pre-CSR legacy kernel on a >= 1000-task LU DAG
// (geometric retry, the paper's 300k-trial regime), plus the engine's
// thread-count bit-identity check. Emits BENCH_mc.json; its `csr` row is
// the engine arm (the name bench/fit_cost_model.py reads).
//
//   ./bench_mc [trials] [k] [pfail] [--strict]
//                       (defaults: 300000, 14 -> 1015 tasks, 0.01)
//   --strict: exit non-zero if the speedup falls under the 3x acceptance
//   bar — for controlled perf runs; CI machines are too noisy to gate on
//   wall-clock ratios, so CI runs without it and tracks the JSON instead.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/failure_model.hpp"
#include "gen/lu.hpp"
#include "legacy_trial.hpp"
#include "mc/engine.hpp"
#include "prob/rng.hpp"
#include "scenario/scenario.hpp"
#include "util/timer.hpp"

namespace {

using namespace expmk;

double checksum_guard = 0.0;  // keeps the trial loops from being elided

double time_legacy(const graph::Dag& g, const core::FailureModel& model,
                   std::uint64_t trials, std::uint64_t seed) {
  const bench::LegacyTrialContext ctx(g, model, core::RetryModel::Geometric);
  std::vector<double> durations;
  const util::Timer timer;
  for (std::uint64_t t = 0; t < trials; ++t) {
    prob::McRng rng(seed, t);
    checksum_guard += bench::legacy_run_trial(ctx, rng, durations);
  }
  return timer.seconds();
}

double time_engine(const scenario::Scenario& sc, std::uint64_t trials,
                   std::uint64_t seed) {
  mc::McConfig cfg;
  cfg.trials = trials;
  cfg.seed = seed;
  cfg.threads = 1;
  const util::Timer timer;
  checksum_guard += mc::run_monte_carlo(sc, cfg).mean;
  return timer.seconds();
}

}  // namespace

int main(int argc, char** argv) {
  bool strict = false;
  std::vector<char*> positional;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--strict") == 0) {
      strict = true;
    } else {
      positional.push_back(argv[i]);
    }
  }
  // Clamp to >= 1: garbage or "0" would otherwise divide by zero below
  // and poison BENCH_mc.json with non-finite values.
  const std::uint64_t trials = std::max<std::uint64_t>(
      1, !positional.empty() ? std::strtoull(positional[0], nullptr, 10)
                             : 300'000);
  const int k = positional.size() > 1 ? std::atoi(positional[1]) : 14;
  const double pfail = positional.size() > 2 ? std::atof(positional[2]) : 0.01;
  const std::uint64_t seed = 2016;

  const auto g = gen::lu_dag(k);
  const auto model = core::calibrate(g, pfail);
  std::printf("bench_mc: LU k=%d (%zu tasks, %zu edges), pfail=%g, "
              "trials=%llu, geometric retry\n",
              k, g.task_count(), g.edge_count(), pfail,
              static_cast<unsigned long long>(trials));

  const double legacy_s = time_legacy(g, model, trials, seed);
  const auto sc = scenario::Scenario::compile(g, model,
                                              core::RetryModel::Geometric);
  const double engine_s = time_engine(sc, trials, seed);
  const double legacy_ns = legacy_s * 1e9 / static_cast<double>(trials);
  const double engine_ns = engine_s * 1e9 / static_cast<double>(trials);
  const double speedup = legacy_s / engine_s;
  std::printf("  legacy kernel: %.0f ns/trial (%.1f ktrials/s)\n", legacy_ns,
              1e6 / legacy_ns);
  std::printf("  mc engine:     %.0f ns/trial (%.1f ktrials/s)\n", engine_ns,
              1e6 / engine_ns);
  std::printf("  speedup:       %.2fx\n", speedup);

  // Engine bit-identity across thread counts (the reproducibility
  // contract the CSR rewrite must preserve).
  mc::McConfig cfg;
  cfg.trials = std::min<std::uint64_t>(trials, 20'000);
  cfg.seed = seed;
  cfg.threads = 1;
  const auto r1 = mc::run_monte_carlo(sc, cfg);
  cfg.threads = 2;
  const auto r2 = mc::run_monte_carlo(sc, cfg);
  cfg.threads = 7;
  const auto r7 = mc::run_monte_carlo(sc, cfg);
  const bool bit_identical = r1.mean == r2.mean && r2.mean == r7.mean &&
                             r1.variance == r2.variance &&
                             r2.variance == r7.variance;
  std::printf("  engine mean=%.17g (threads 1/2/7 bit-identical: %s)\n",
              r1.mean, bit_identical ? "yes" : "NO");

  bench::JsonWriter legacy_json;
  legacy_json.field("seconds", legacy_s).field("ns_per_trial", legacy_ns);
  bench::JsonWriter csr_json;
  csr_json.field("seconds", engine_s).field("ns_per_trial", engine_ns);
  bench::JsonWriter engine_json;
  engine_json.field("trials", cfg.trials)
      .field("mean", r1.mean)
      .field("variance", r1.variance)
      .field("threads_1_2_7_bit_identical", bit_identical);

  bench::JsonWriter out;
  out.field("bench", "mc_trial_throughput")
      .field("dag", "lu")
      .field("k", k)
      .field("tasks", g.task_count())
      .field("edges", g.edge_count())
      .field("pfail", pfail)
      .field("retry", "geometric")
      .field("trials", trials)
      .field("seed", seed)
      .object("legacy", legacy_json)
      .object("csr", csr_json)
      .field("speedup", speedup)
      .object("engine", engine_json);
  out.write_file("BENCH_mc.json");
  std::printf("  wrote BENCH_mc.json\n");

  // The CSR kernel's acceptance bar; keep future regressions loud
  // (but only gate the exit code in --strict runs on quiet machines).
  if (speedup < 3.0) {
    std::printf("  WARNING: speedup %.2fx below the 3x acceptance bar\n",
                speedup);
    if (strict) return 1;
  }
  return 0;
}
