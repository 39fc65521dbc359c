// examples/expmk_cli.cpp
//
// A self-contained command-line front end to the library, for users who
// want estimates without writing C++:
//
//   expmk_cli generate --class cholesky --k 6 --out chol6.tg
//   expmk_cli generate --class lu --k 4 --pfail 0.01 --rate-spread 8 \
//       --out lu4het.tg                      # heterogeneous per-task rates
//   expmk_cli estimate --graph chol6.tg --pfail 0.001
//   expmk_cli estimate --graph lu4het.tg --use-rates --method all
//   expmk_cli estimate --graph chol6.tg --pfail 0.001 --method mc --trials 100000
//   expmk_cli dot --graph chol6.tg --out chol6.dot
//   expmk_cli schedule --graph chol6.tg --p 4 --pfail 0.01
//
// Graphs travel in the expmk-taskgraph text format (graph/serialize.hpp);
// version-2 files carry per-task silent-error rates, and --use-rates
// builds a heterogeneous scenario straight from them. Every estimating
// command compiles ONE scenario::Scenario and hands it to the evaluator
// registry — the same compile-once path the sweep harness uses.

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "core/criticality.hpp"
#include "core/failure_model.hpp"
#include "exp/evaluator.hpp"
#include "exp/plan.hpp"
#include "exp/workspace.hpp"
#include "gen/cholesky.hpp"
#include "gen/lu.hpp"
#include "gen/qr.hpp"
#include "gen/random_dags.hpp"
#include "graph/dot.hpp"
#include "graph/serialize.hpp"
#include "graph/validate.hpp"
#include "prob/rng.hpp"
#include "scenario/content_hash.hpp"
#include "scenario/scenario.hpp"
#include "sched/fault_sim.hpp"
#include "util/cli.hpp"
#include "util/simd.hpp"
#include "util/timer.hpp"

namespace {

using namespace expmk;

int usage() {
  std::fprintf(stderr,
               "usage: expmk_cli <command> [options]\n"
               "commands:\n"
               "  generate  --class cholesky|lu|qr|layered|erdos --k N "
               "[--seed S] [--pfail P --rate-spread F] --out FILE\n"
               "  estimate  --graph FILE (--pfail P | --use-rates) "
               "[--method all|<registry name>] [--retry twostate|geometric] "
               "[--trials N] [--repeat N] [--max-atoms N] "
               "[--target-rel-err E | --deadline-us D  (planned mode)] "
               "[--patch TASK=RATE[,TASK=RATE...]]\n"
               "  dot       --graph FILE --out FILE\n"
               "  schedule  --graph FILE --p N (--pfail P | --use-rates) "
               "[--runs N]\n"
               "  validate  --graph FILE\n"
               "  critical  --graph FILE (--pfail P | --use-rates) "
               "[--trials N]\n");
  return 2;
}

/// Parses all of `s` as a T; false on an empty, partial or out-of-range
/// token (from_chars takes no sign on unsigned types and no whitespace).
template <typename T>
bool parse_whole(const std::string& s, T& out) {
  const char* end = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(s.data(), end, out);
  return ec == std::errc() && ptr == end;
}

/// Builds the scenario every estimating command shares: uniform pfail
/// calibration, or (--use-rates) the per-task rates embedded in a
/// version-2 task-graph file.
scenario::Scenario scenario_from_file(const graph::TaskGraphFile& file,
                                      bool use_rates, double pfail,
                                      core::RetryModel retry) {
  if (use_rates) {
    if (!file.has_rates()) {
      throw std::invalid_argument(
          "--use-rates: the graph file carries no per-task rates "
          "(expmk-taskgraph version 2; see 'generate --rate-spread')");
    }
    return scenario::Scenario::compile(
        file.dag, scenario::FailureSpec::per_task(file.rates), retry);
  }
  return scenario::Scenario::calibrated(file.dag, pfail, retry);
}

int cmd_generate(int argc, const char* const* argv) {
  util::Cli cli("expmk_cli generate", "Generate a task graph file");
  cli.add_string("class", "cholesky", "cholesky|lu|qr|layered|erdos");
  cli.add_int("k", 6, "tile count (factorizations) / size parameter");
  cli.add_int("seed", 1, "seed for random families (and --rate-spread)");
  cli.add_double("pfail", 0.0,
                 "with --rate-spread: center rate calibration");
  cli.add_double("rate-spread", 0.0,
                 "write per-task rates log-uniform in [lambda/F, lambda*F] "
                 "(version-2 file; 0 = uniform file without rates)");
  cli.add_string("out", "graph.tg", "output path");
  cli.parse(argc, argv);

  const std::string cls = cli.get_string("class");
  const int k = static_cast<int>(cli.get_int("k"));
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  graph::Dag g;
  if (cls == "cholesky") {
    g = gen::cholesky_dag(k);
  } else if (cls == "lu") {
    g = gen::lu_dag(k);
  } else if (cls == "qr") {
    g = gen::qr_dag(k);
  } else if (cls == "layered") {
    g = gen::layered_random(k, k, 0.3, seed);
  } else if (cls == "erdos") {
    g = gen::erdos_dag(k * k, 0.15, seed);
  } else {
    std::fprintf(stderr, "unknown class '%s'\n", cls.c_str());
    return 2;
  }

  const double spread = cli.get_double("rate-spread");
  if (spread > 0.0) {
    if (spread < 1.0) {
      std::fprintf(stderr, "--rate-spread must be >= 1\n");
      return 2;
    }
    if (!(cli.get_double("pfail") > 0.0)) {
      // pfail defaults to 0: spreading rates around lambda == 0 would
      // silently write an all-zero (failure-free) "heterogeneous" file.
      std::fprintf(stderr,
                   "--rate-spread needs --pfail > 0 (the center rate)\n");
      return 2;
    }
    const double lambda =
        core::calibrate(g, cli.get_double("pfail")).lambda;
    // Per-task rates log-uniform in [lambda/spread, lambda*spread]: the
    // standard way to model machines whose error rates differ by up to
    // spread^2 while keeping the calibrated rate as the geometric center.
    std::vector<double> rates(g.task_count());
    prob::Xoshiro256pp rng(seed, 0x8a7e5);
    const double log_spread = std::log(spread);
    for (double& r : rates) {
      r = lambda * std::exp((2.0 * rng.uniform() - 1.0) * log_spread);
    }
    graph::save_taskgraph(cli.get_string("out"), g, rates);
    std::printf("wrote %s: %zu tasks, %zu edges, per-task rates around "
                "lambda=%.6g (spread %g)\n",
                cli.get_string("out").c_str(), g.task_count(),
                g.edge_count(), lambda, spread);
    return 0;
  }

  graph::save_taskgraph(cli.get_string("out"), g);
  std::printf("wrote %s: %zu tasks, %zu edges\n",
              cli.get_string("out").c_str(), g.task_count(), g.edge_count());
  return 0;
}

int cmd_estimate(int argc, const char* const* argv) {
  util::Cli cli("expmk_cli estimate", "Expected-makespan estimates");
  cli.add_string("graph", "graph.tg", "input task graph");
  cli.add_double("pfail", 0.001, "per-average-task failure probability");
  cli.add_flag("use-rates",
               "heterogeneous scenario from the file's per-task rates "
               "(version-2 graph file) instead of --pfail");
  cli.add_string("method", "all",
                 "all | a registry method (fo, so, dodin, sculli, corlca, "
                 "clark, mc, cmc, exact, ...)");
  cli.add_string("retry", "twostate",
                 "twostate|geometric (one scenario, one retry model; "
                 "two-state-only methods gate under geometric)");
  cli.add_int("trials", 100'000, "Monte-Carlo trials (mc/cmc)");
  cli.add_int("dodin-atoms", 128, "Dodin atom budget");
  cli.add_int("max-atoms", 0,
              "atom budget for every distribution method (0 = exact for "
              "sp; a positive value also overrides --dodin-atoms). When "
              "the cap fires, the atom-cap envelope [mean_lo, mean_hi] "
              "is printed (it bounds the truncation error only, not "
              "E[makespan])");
  cli.add_double("target-rel-err", 0.0,
                 "PLANNED MODE: let the query planner pick and size the "
                 "cheapest method delivering this relative error "
                 "(--method is ignored)");
  cli.add_double("deadline-us", 0.0,
                 "PLANNED MODE: predicted-cost budget in microseconds; "
                 "the planner picks the most accurate method under it "
                 "(combine with --target-rel-err for both constraints)");
  cli.add_int("repeat", 1,
              "evaluate each method N times on one warm workspace and "
              "report amortized throughput (first-call vs steady-state)");
  cli.add_string("patch", "",
                 "comma-separated TASK=RATE overrides applied via "
                 "Scenario::patch (incremental re-derivation); the patched "
                 "handle is verified bit-identical to a fresh compile of "
                 "the same rates, then used for every estimate below");
  cli.parse(argc, argv);

  const std::string retry_name = cli.get_string("retry");
  core::RetryModel retry;
  if (retry_name == "twostate") {
    retry = core::RetryModel::TwoState;
  } else if (retry_name == "geometric") {
    retry = core::RetryModel::Geometric;
  } else {
    std::fprintf(stderr, "unknown retry model '%s'\n", retry_name.c_str());
    return 2;
  }

  // Planned-mode budgets: 0 means "unconstrained". A NaN, infinite or
  // negative budget is a malformed request — it must not fall back to
  // running every method.
  const double target = cli.get_double("target-rel-err");
  const double deadline = cli.get_double("deadline-us");
  if (!(std::isfinite(target) && target >= 0.0) ||
      !(std::isfinite(deadline) && deadline >= 0.0)) {
    std::fprintf(stderr,
                 "--target-rel-err and --deadline-us must be finite and "
                 ">= 0\n");
    return usage();
  }

  const auto file = graph::load_taskgraph_file(cli.get_string("graph"));
  scenario::Scenario sc = scenario_from_file(
      file, cli.get_flag("use-rates"), cli.get_double("pfail"), retry);

  std::printf("graph: %zu tasks, %zu edges, d(G)=%.6f, %s\n",
              sc.task_count(), sc.dag().edge_count(), sc.critical_path(),
              sc.heterogeneous()
                  ? "heterogeneous per-task rates"
                  : ("lambda=" + std::to_string(sc.uniform_model().lambda))
                        .c_str());
  // The serving layer's cache key for this exact cell — paste it into an
  // expmk_serve by-hash request, or correlate it with STATS entries.
  std::printf("scenario-hash: %s\n",
              scenario::content_hash_hex(
                  scenario::content_hash(sc.dag(), sc.failure(), retry))
                  .c_str());

  const std::string patch_spec = cli.get_string("patch");
  if (!patch_spec.empty()) {
    // Parse "TASK=RATE[,TASK=RATE...]" into parallel id/rate vectors.
    std::vector<graph::TaskId> patch_ids;
    std::vector<double> patch_rates;
    std::size_t pos = 0;
    while (pos < patch_spec.size()) {
      const std::size_t comma = patch_spec.find(',', pos);
      const std::string item =
          comma == std::string::npos
              ? patch_spec.substr(pos)
              : patch_spec.substr(pos, comma - pos);
      // Both tokens must parse whole: "0x=0.5" or "0=0.5abc" is a typo,
      // not task 0 at rate 0.5.
      const std::size_t eq = item.find('=');
      std::size_t id = 0;
      double rate = 0.0;
      if (eq == std::string::npos || !parse_whole(item.substr(0, eq), id) ||
          !parse_whole(item.substr(eq + 1), rate)) {
        std::fprintf(stderr, "--patch: expected TASK=RATE, got '%s'\n",
                     item.c_str());
        return usage();
      }
      if (id >= sc.task_count()) {
        std::fprintf(stderr, "--patch: task %zu out of range (%zu tasks)\n",
                     id, sc.task_count());
        return usage();
      }
      patch_ids.push_back(static_cast<graph::TaskId>(id));
      patch_rates.push_back(rate);
      if (comma == std::string::npos) break;
      pos = comma + 1;
    }

    const util::Timer patch_timer;
    scenario::Scenario patched = sc.patch(patch_ids, patch_rates);
    const double patch_us = patch_timer.seconds() * 1e6;

    // Referee: a fresh compile of the merged rate vector. The patched
    // handle must be indistinguishable from it — same content hash,
    // bitwise-equal first-order mean.
    const scenario::FailureSpec& base = sc.failure();
    std::vector<double> merged =
        base.heterogeneous()
            ? base.per_task_rates()
            : std::vector<double>(sc.task_count(), base.uniform_lambda());
    for (std::size_t j = 0; j < patch_ids.size(); ++j) {
      merged[patch_ids[j]] = patch_rates[j];
    }
    const util::Timer compile_timer;
    const scenario::Scenario fresh = scenario::Scenario::compile(
        sc.dag(), scenario::FailureSpec::per_task(merged), retry);
    const double compile_us = compile_timer.seconds() * 1e6;

    const auto& preg = exp::EvaluatorRegistry::builtin();
    const double mean_patched =
        preg.find("fo")->evaluate(patched, exp::EvalOptions{}).mean;
    const double mean_fresh =
        preg.find("fo")->evaluate(fresh, exp::EvalOptions{}).mean;
    const bool identical =
        std::memcmp(&mean_patched, &mean_fresh, sizeof(double)) == 0;
    std::printf("patched %zu task(s) in %.1f us (fresh compile: %.1f us, "
                "%.1fx); patch==compile: %s\n",
                patch_ids.size(), patch_us, compile_us,
                patch_us > 0.0 ? compile_us / patch_us : 0.0,
                identical ? "bit-identical" : "MISMATCH");
    std::printf("scenario-hash: %s (patched)\n",
                scenario::content_hash_hex(scenario::content_hash(
                                               patched.dag(),
                                               patched.failure(), retry))
                    .c_str());
    if (!identical) return 1;
    sc = std::move(patched);
  }

  exp::EvalOptions opt;
  opt.mc_trials = cli.get_count("trials");
  opt.dodin_atoms = cli.get_count("dodin-atoms");
  const auto max_atoms =
      static_cast<std::size_t>(std::max<std::int64_t>(0, cli.get_int("max-atoms")));
  opt.sp_max_atoms = max_atoms;
  if (max_atoms > 0) opt.dodin_atoms = max_atoms;

  // ---- planned mode: the query planner picks, sizes, runs, verifies ---
  if (target > 0.0 || deadline > 0.0) {
    exp::PlanBudget budget;
    budget.target_rel_err = target;
    budget.deadline_us = deadline;
    const exp::Planner planner;
    const exp::PlannedResult pr = planner.run(sc, budget, opt);
    for (const exp::PlanStep& s : pr.report.steps) {
      std::printf("plan: step %-10s atoms=%-5zu trials=%-8llu "
                  "predicted %10.1f us  actual %10.1f us  %s\n",
                  std::string(exp::plan_method_name(s.method)).c_str(),
                  s.max_atoms,
                  static_cast<unsigned long long>(s.mc_trials),
                  s.predicted_us, s.actual_us,
                  s.supported
                      ? (s.envelope_rel_width > 0.0
                             ? ("width " + std::to_string(s.envelope_rel_width))
                                   .c_str()
                             : "ok")
                      : ("unsupported: " + s.note).c_str());
    }
    const exp::PlanReport& rep = pr.report;
    std::printf("plan: chose %s  predicted %.1f us  actual %.1f us  "
                "rel-err<=%.3g  escalations=%d%s%s%s\n",
                std::string(rep.method_name).c_str(), rep.predicted_us,
                rep.actual_us, rep.predicted_rel_err, rep.escalations,
                rep.low_confidence ? "  [low-confidence]" : "",
                rep.met_target ? "" : "  [TARGET MISSED]",
                rep.met_deadline ? "" : "  [DEADLINE MISSED]");
    if (!pr.result.supported) {
      std::printf("planned: unsupported (%s)\n", pr.result.note.c_str());
      return 1;
    }
    if (pr.result.std_error > 0.0) {
      std::printf("planned %-8s: %.6f +/- %.6f\n",
                  std::string(rep.method_name).c_str(), pr.result.mean,
                  1.96 * pr.result.std_error);
    } else {
      std::printf("planned %-8s: %.6f\n",
                  std::string(rep.method_name).c_str(), pr.result.mean);
    }
    if (pr.result.mean_lo < pr.result.mean_hi) {
      std::printf("  atom-cap envelope [%.6f, %.6f]\n", pr.result.mean_lo,
                  pr.result.mean_hi);
    }
    return 0;
  }

  const std::string method = cli.get_string("method");
  const std::vector<std::string> all = {"fo",     "so",     "dodin",
                                        "sculli", "corlca", "mc"};
  const auto& reg = exp::EvaluatorRegistry::builtin();
  std::vector<std::string> names;
  if (method == "all") {
    names = all;
  } else if (reg.find(method) != nullptr) {
    names = {method};
  } else {
    std::fprintf(stderr, "unknown method '%s' (see expmk_sweep --list)\n",
                 method.c_str());
    return 2;
  }

  // --max-atoms only reaches the distribution engines; warn (don't fail)
  // when it is paired with a method that never reads an atom budget, so
  // a "why didn't the envelope change" session debugs itself.
  if (max_atoms > 0 && method != "all" && method != "sp" &&
      method != "dodin" && method != "sp.hier" && method != "dodin.hier" &&
      method != "mc.hier") {
    std::fprintf(stderr,
                 "warning: --max-atoms has no effect on method '%s' "
                 "(atom budgets apply to sp, dodin, sp.hier, dodin.hier, "
                 "mc.hier)\n",
                 method.c_str());
  }

  const auto repeat = static_cast<std::uint64_t>(
      std::max<std::int64_t>(1, cli.get_int("repeat")));
  for (const std::string& name : names) {
    const exp::Evaluator* e = reg.find(name);
    if (repeat == 1) {
      // Capture the makespan law for the distribution methods, whose law
      // falls out of the evaluation for free, so the report can show tail
      // quantiles next to the mean. (exact could also capture, but its
      // distribution costs a SECOND full 2^V enumeration — not worth an
      // incidental quantile line.)
      exp::EvalOptions capture_opt = opt;
      capture_opt.capture_distribution = name == "sp" || name == "dodin";
      const auto r = e->evaluate(sc, capture_opt);
      if (!r.supported) {
        std::printf("%-12s: unsupported (%s)\n", name.c_str(),
                    r.note.c_str());
        continue;
      }
      if (r.std_error > 0.0) {
        std::printf("%-12s: %.6f +/- %.6f", name.c_str(), r.mean,
                    1.96 * r.std_error);
      } else {
        std::printf("%-12s: %.6f", name.c_str(), r.mean);
      }
      if (r.mean_lo < r.mean_hi) {
        // The atom cap fired: report the envelope the untruncated
        // computation is guaranteed to lie in. It certifies the cap only,
        // not E[makespan]: a method's own bias lies outside it.
        std::printf("  atom-cap envelope [%.6f, %.6f]", r.mean_lo, r.mean_hi);
      }
      if (r.distribution.has_value()) {
        std::printf("  p50=%.6f p95=%.6f p99=%.6f",
                    r.distribution->quantile(0.50),
                    r.distribution->quantile(0.95),
                    r.distribution->quantile(0.99));
      }
      std::printf("\n");
      continue;
    }

    // --repeat N: the amortization demo. The first call pays the cold
    // arenas (the PR-3 per-call cost structure); every later call leases
    // warm workspace buffers — the steady-state serving path.
    exp::Workspace ws;
    util::Timer first_timer;
    const auto r = e->evaluate(sc, opt, ws);
    const double first_us = first_timer.seconds() * 1e6;
    if (!r.supported) {
      std::printf("%-12s: unsupported (%s)\n", name.c_str(),
                  r.note.c_str());
      continue;
    }
    double guard = r.mean;
    const util::Timer steady_timer;
    for (std::uint64_t i = 1; i < repeat; ++i) {
      guard += e->evaluate(sc, opt, ws).mean;
    }
    const double steady_seconds = steady_timer.seconds();
    const double steady_us =
        steady_seconds * 1e6 / static_cast<double>(repeat - 1);
    const double evals_per_sec =
        steady_seconds > 0.0
            ? static_cast<double>(repeat - 1) / steady_seconds
            : 0.0;
    (void)guard;
    std::printf("%-12s: %.6f   first-call %9.1f us, steady-state %9.1f "
                "us (%.0f evals/sec over %llu warm reps) "
                "[kernels=%s rng=philox4x32]\n",
                name.c_str(), r.mean, first_us, steady_us, evals_per_sec,
                static_cast<unsigned long long>(repeat - 1),
                util::simd::name(util::simd::active()));
  }
  return 0;
}

int cmd_dot(int argc, const char* const* argv) {
  util::Cli cli("expmk_cli dot", "Export a task graph to Graphviz");
  cli.add_string("graph", "graph.tg", "input task graph");
  cli.add_string("out", "graph.dot", "output .dot path");
  cli.add_flag("weights", "show weights in labels");
  cli.parse(argc, argv);
  const auto g = graph::load_taskgraph(cli.get_string("graph"));
  std::ofstream os(cli.get_string("out"));
  graph::DotOptions opts;
  opts.show_weights = cli.get_flag("weights");
  graph::write_dot(os, g, opts);
  std::printf("wrote %s\n", cli.get_string("out").c_str());
  return 0;
}

int cmd_schedule(int argc, const char* const* argv) {
  util::Cli cli("expmk_cli schedule", "Fault-aware CP scheduling report");
  cli.add_string("graph", "graph.tg", "input task graph");
  cli.add_int("p", 4, "processors");
  cli.add_double("pfail", 0.01, "per-average-task failure probability");
  cli.add_flag("use-rates",
               "heterogeneous scenario from the file's per-task rates");
  cli.add_int("runs", 1000, "fault-injection runs");
  cli.parse(argc, argv);

  const auto file = graph::load_taskgraph_file(cli.get_string("graph"));
  const scenario::Scenario sc = scenario_from_file(
      file, cli.get_flag("use-rates"), cli.get_double("pfail"),
      core::RetryModel::Geometric);
  // Both the failure-aware priorities and the simulation read each
  // task's own rate.
  const sched::Machine machine(cli.get_count("p"));
  sched::FaultSimConfig cfg;
  cfg.runs = cli.get_count("runs");
  exp::Workspace ws;

  for (const auto kind : {sched::PriorityKind::BottomLevel,
                          sched::PriorityKind::FailureAwareBottomLevel}) {
    const auto prio = sched::priorities(sc, kind);
    const auto r = sched::simulate_with_faults(sc, prio, machine, cfg, ws);
    std::printf("%-24s failure-free %.5f, under faults mean %.5f +/- "
                "%.5f (95%% CI, max %.5f)\n",
                kind == sched::PriorityKind::BottomLevel
                    ? "bottom-level"
                    : "failure-aware",
                r.failure_free_makespan, r.makespan.mean(),
                r.makespan.ci_half_width(0.95), r.makespan.max());
  }
  return 0;
}

int cmd_validate(int argc, const char* const* argv) {
  util::Cli cli("expmk_cli validate", "Structural checks on a task graph");
  cli.add_string("graph", "graph.tg", "input task graph");
  cli.parse(argc, argv);
  const auto g = graph::load_taskgraph(cli.get_string("graph"));
  const auto report = graph::validate(g);
  std::printf("tasks=%zu edges=%zu entries=%zu exits=%zu components=%zu\n",
              g.task_count(), g.edge_count(), report.entry_count,
              report.exit_count, report.component_count);
  for (const auto& p : report.problems) std::printf("problem: %s\n", p.c_str());
  std::printf("%s\n", report.ok() ? "OK" : "INVALID");
  return report.ok() ? 0 : 1;
}

int cmd_critical(int argc, const char* const* argv) {
  util::Cli cli("expmk_cli critical", "Criticality analysis");
  cli.add_string("graph", "graph.tg", "input task graph");
  cli.add_double("pfail", 0.01, "per-average-task failure probability");
  cli.add_flag("use-rates",
               "heterogeneous scenario from the file's per-task rates");
  cli.add_int("trials", 10'000, "Monte-Carlo trials");
  cli.add_int("top", 10, "how many tasks to list");
  cli.parse(argc, argv);

  const auto file = graph::load_taskgraph_file(cli.get_string("graph"));
  const scenario::Scenario sc = scenario_from_file(
      file, cli.get_flag("use-rates"), cli.get_double("pfail"),
      core::RetryModel::Geometric);
  const graph::Dag& g = sc.dag();
  core::CriticalityConfig cfg;
  cfg.trials = cli.get_count("trials");
  exp::Workspace ws;
  const auto prob = core::criticality_probabilities(sc, cfg, ws);
  const auto slack = core::slacks(g);

  std::vector<graph::TaskId> order(g.task_count());
  for (graph::TaskId i = 0; i < g.task_count(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](graph::TaskId a, graph::TaskId b) {
    return prob[a] > prob[b];
  });
  const auto limit = std::min<std::size_t>(order.size(), cli.get_count("top"));
  std::printf("%-20s %-12s %-10s\n", "task", "P(critical)", "slack");
  for (std::size_t i = 0; i < limit; ++i) {
    const auto t = order[i];
    std::printf("%-20s %-12.4f %-10.5f\n",
                std::string(g.name(t)).c_str(), prob[t], slack[t]);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  // Shift argv so each sub-Cli sees its own option list.
  const int sub_argc = argc - 1;
  const char* const* sub_argv = argv + 1;
  try {
    if (command == "generate") return cmd_generate(sub_argc, sub_argv);
    if (command == "estimate") return cmd_estimate(sub_argc, sub_argv);
    if (command == "dot") return cmd_dot(sub_argc, sub_argv);
    if (command == "schedule") return cmd_schedule(sub_argc, sub_argv);
    if (command == "validate") return cmd_validate(sub_argc, sub_argv);
    if (command == "critical") return cmd_critical(sub_argc, sub_argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "expmk_cli %s: %s\n", command.c_str(), e.what());
    return 1;
  }
  return usage();
}
