// bench/bench_common.hpp
//
// Shared plumbing for the figure/table reproduction binaries: run the
// three estimators of the paper (First Order, Dodin, Normal/Sculli) plus
// our extensions against the Monte-Carlo ground truth on one DAG, timing
// each, and emit rows in the format the paper reports (signed normalized
// difference with Monte Carlo).

#pragma once

#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "core/failure_model.hpp"
#include "core/first_order.hpp"
#include "core/second_order.hpp"
#include "exp/workspace.hpp"
#include "graph/dag.hpp"
#include "mc/engine.hpp"
#include "normal/clark_full.hpp"
#include "normal/corlca.hpp"
#include "normal/sculli.hpp"
#include "scenario/scenario.hpp"
#include "spgraph/dodin.hpp"
#include "util/json_writer.hpp"
#include "util/timer.hpp"

namespace expmk::bench {

/// The JSON emitter moved into the library (util/json_writer.hpp) when the
/// sweep subsystem started emitting artifacts; the bench binaries keep
/// using it under the historical name.
using JsonWriter = util::JsonWriter;

/// Strict positional arguments for the plain-main benches: the whole
/// token must parse (no trailing junk), a count must be >= 1 and a pfail
/// must lie in (0, 1). Anything else prints `usage` and exits 2 instead
/// of running zero reps (or a nonsense rate) and writing a bogus JSON.
[[noreturn]] inline void usage_exit(const char* usage, const char* bad) {
  std::fprintf(stderr, "invalid argument '%s'\nusage: %s\n", bad, usage);
  std::exit(2);
}

inline std::uint64_t count_arg(int argc, char** argv, int i,
                               std::uint64_t fallback, const char* usage) {
  if (i >= argc) return fallback;
  const char* s = argv[i];
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (s[0] == '-' || end == s || *end != '\0' || errno == ERANGE || v == 0) {
    usage_exit(usage, s);
  }
  return v;
}

inline double pfail_arg(int argc, char** argv, int i, double fallback,
                        const char* usage) {
  if (i >= argc) return fallback;
  const char* s = argv[i];
  char* end = nullptr;
  const double v = std::strtod(s, &end);
  if (end == s || *end != '\0' || !(v > 0.0 && v < 1.0)) usage_exit(usage, s);
  return v;
}

/// One estimator's outcome on one (DAG, pfail) cell.
struct MethodOutcome {
  double estimate = 0.0;
  double seconds = 0.0;
  /// (estimate - mc_mean) / mc_mean; the paper's "normalized difference
  /// with Monte-Carlo". Negative = underestimation.
  double normalized_difference = 0.0;
};

/// All estimators on one cell.
struct CellResult {
  double pfail = 0.0;
  double lambda = 0.0;
  double mc_mean = 0.0;
  double mc_ci95 = 0.0;
  double mc_seconds = 0.0;
  double critical_path = 0.0;
  MethodOutcome first_order;
  MethodOutcome dodin;
  MethodOutcome sculli;   ///< the paper's "Normal"
  MethodOutcome second_order;
  MethodOutcome corlca;
  MethodOutcome clark_full;
};

/// Which optional estimators to run (the paper's three always run).
struct CellOptions {
  std::uint64_t mc_trials = 300'000;  ///< the paper's trial count
  std::uint64_t mc_seed = 2016;
  std::size_t dodin_atoms = 256;
  bool run_second_order = false;
  bool run_corlca = false;
  bool run_clark_full = false;
  /// Monte-Carlo retry model; Geometric reproduces the paper's simulator
  /// (time-to-failure resampled per attempt).
  core::RetryModel mc_retry = core::RetryModel::Geometric;
  /// Use the control-variate estimator for a tighter ground truth at the
  /// same trial count (off by default: the paper uses the plain mean).
  bool mc_control_variate = false;
};

inline CellResult evaluate_cell(const graph::Dag& g, double pfail,
                                const CellOptions& opt) {
  CellResult cell;
  cell.pfail = pfail;
  const core::FailureModel model = core::calibrate(g, pfail);
  cell.lambda = model.lambda;

  mc::McConfig mc_cfg;
  mc_cfg.trials = opt.mc_trials;
  mc_cfg.seed = opt.mc_seed;
  mc_cfg.control_variate = opt.mc_control_variate;
  const auto mc = mc::run_monte_carlo(
      scenario::Scenario::compile(g, model, opt.mc_retry), mc_cfg);
  cell.mc_mean = mc.mean;
  cell.mc_ci95 = mc.ci95_half_width;
  cell.mc_seconds = mc.seconds;

  const auto diff = [&](double est) { return (est - mc.mean) / mc.mean; };
  // Each method's time includes compiling its scenario from the Dag, so
  // the rows compare end-to-end costs the way Table I does.
  exp::Workspace ws;
  {
    const util::Timer t;
    const auto r = core::first_order(scenario::Scenario::compile(g, model), ws);
    cell.first_order.seconds = t.seconds();
    cell.first_order.estimate = r.expected_makespan();
    cell.critical_path = r.critical_path;
  }
  {
    const util::Timer t;
    const auto sc = scenario::Scenario::compile(g, model);
    const auto r =
        sp::dodin_two_state_flat(sc, {.max_atoms = opt.dodin_atoms}, ws);
    cell.dodin.seconds = t.seconds();
    cell.dodin.estimate = r.mean;
  }
  {
    const util::Timer t;
    const auto r = normal::sculli(scenario::Scenario::compile(g, model), ws);
    cell.sculli.seconds = t.seconds();
    cell.sculli.estimate = r.expected_makespan();
  }
  if (opt.run_second_order) {
    const util::Timer t;
    const auto r = core::second_order(
        scenario::Scenario::compile(g, model, core::RetryModel::Geometric), ws);
    cell.second_order.seconds = t.seconds();
    cell.second_order.estimate = r.expected_makespan;
  }
  if (opt.run_corlca) {
    const util::Timer t;
    const auto r = normal::corlca(scenario::Scenario::compile(g, model), ws);
    cell.corlca.seconds = t.seconds();
    cell.corlca.estimate = r.expected_makespan();
  }
  if (opt.run_clark_full) {
    const util::Timer t;
    const auto r =
        normal::clark_full(scenario::Scenario::compile(g, model), ws);
    cell.clark_full.seconds = t.seconds();
    cell.clark_full.estimate = r.expected_makespan();
  }

  for (MethodOutcome* m :
       {&cell.first_order, &cell.dodin, &cell.sculli, &cell.second_order,
        &cell.corlca, &cell.clark_full}) {
    if (m->seconds > 0.0 || m->estimate != 0.0) {
      m->normalized_difference = diff(m->estimate);
    }
  }
  return cell;
}

}  // namespace expmk::bench
