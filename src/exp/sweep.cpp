#include "exp/sweep.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <utility>

#include "exp/seeds.hpp"
#include "exp/workspace.hpp"
#include "gen/cholesky.hpp"
#include "gen/lu.hpp"
#include "gen/qr.hpp"
#include "gen/random_dags.hpp"
#include "prob/rng.hpp"
#include "scenario/scenario.hpp"
#include "util/json_writer.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace expmk::exp {

namespace {

std::string retry_name(core::RetryModel retry) {
  return retry == core::RetryModel::TwoState ? "two_state" : "geometric";
}

/// %.17g — round-trips doubles exactly, keeping the CSV diffable.
std::string num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// One expanded scenario: a (generator, size, pfail) point of the grid.
struct Scenario {
  std::size_t gen_index;
  std::size_t size_index;
  std::size_t pfail_index;
};

}  // namespace

graph::Dag SweepRunner::build_dag(const std::string& generator, int size,
                                  std::uint64_t seed) {
  if (size < 1) {
    throw std::invalid_argument("SweepRunner: size must be >= 1");
  }
  if (generator == "lu") return gen::lu_dag(size);
  if (generator == "qr") return gen::qr_dag(size);
  if (generator == "cholesky") return gen::cholesky_dag(size);
  if (generator == "layered") {
    return gen::layered_random(size, size, 0.3, seed);
  }
  if (generator == "erdos") return gen::erdos_dag(size, 0.2, seed);
  if (generator == "sp") return gen::random_series_parallel(size, seed);
  if (generator == "chain") return gen::chain_dag(size, seed);
  if (generator == "forkjoin") return gen::fork_join_dag(size, seed);
  throw std::invalid_argument("SweepRunner: unknown generator '" + generator +
                              "'");
}

SweepResult SweepRunner::run(const SweepGrid& grid,
                             std::size_t threads) const {
  const util::Timer timer;
  if (grid.generators.empty() || grid.sizes.empty() || grid.pfails.empty()) {
    throw std::invalid_argument(
        "SweepRunner: generators, sizes and pfails must all be non-empty");
  }
  if (grid.methods.empty() && grid.reference.empty()) {
    throw std::invalid_argument("SweepRunner: no methods and no reference");
  }
  if (grid.options.mc_trials == 0) {
    throw std::invalid_argument("SweepRunner: mc_trials must be >= 1");
  }
  for (const int size : grid.sizes) {
    if (size < 1) {
      throw std::invalid_argument("SweepRunner: sizes must be >= 1");
    }
  }
  for (const double pfail : grid.pfails) {
    // The lambda_for_pfail domain, checked before any cell runs instead
    // of mid-sweep from inside a worker.
    if (!(pfail >= 0.0) || pfail >= 1.0) {
      throw std::invalid_argument("SweepRunner: pfail must be in [0,1)");
    }
  }

  // Resolve every name upfront: a sweep fails loudly on a typo, before
  // any cell burns compute. The reference (when set and not already
  // listed) is prepended so it appears in the output as its own cells.
  std::vector<std::string> method_order;
  method_order.reserve(grid.methods.size() + 1);
  bool reference_listed = false;
  for (const std::string& m : grid.methods) {
    reference_listed = reference_listed || m == grid.reference;
  }
  if (!grid.reference.empty() && !reference_listed) {
    method_order.push_back(grid.reference);
  }
  method_order.insert(method_order.end(), grid.methods.begin(),
                      grid.methods.end());
  for (const std::string& name : method_order) {
    if (registry_->find(name) == nullptr) {
      throw std::invalid_argument("SweepRunner: unknown method '" + name +
                                  "'");
    }
  }
  for (const std::string& generator : grid.generators) {
    // Size 1 is legal in every family, so this is a cheap name check.
    (void)build_dag(generator, 1, 0);
  }
  const std::vector<std::string>* methods = &method_order;

  std::vector<Scenario> scenarios;
  scenarios.reserve(grid.generators.size() * grid.sizes.size() *
                    grid.pfails.size());
  for (std::size_t g = 0; g < grid.generators.size(); ++g) {
    for (std::size_t s = 0; s < grid.sizes.size(); ++s) {
      for (std::size_t p = 0; p < grid.pfails.size(); ++p) {
        scenarios.push_back({g, s, p});
      }
    }
  }

  const std::size_t methods_per_scenario = methods->size();
  std::vector<SweepCell> cells(scenarios.size() * methods_per_scenario);

  util::for_each_chunk(util::resolve_threads(threads), scenarios.size(),
                       [&](std::size_t si) {
    const Scenario& sc = scenarios[si];
    const std::string& generator = grid.generators[sc.gen_index];
    const int size = grid.sizes[sc.size_index];
    const double pfail = grid.pfails[sc.pfail_index];

    // The DAG seed depends on (generator, size) only: the same graph
    // instance is swept across every pfail value, the paper's protocol.
    const std::uint64_t graph_seed = derive_seed(
        derive_seed(grid.base_seed, sc.gen_index), sc.size_index);
    const std::uint64_t scenario_seed = derive_seed(graph_seed, sc.pfail_index);

    const graph::Dag dag = build_dag(generator, size, graph_seed);
    const core::FailureModel model = core::calibrate(dag, pfail);
    // The compile-once contract: ONE scenario per (generator, size,
    // pfail, retry) cell, shared by every method in the row — the CSR
    // view, topological order and per-task constants are derived here and
    // never again (tests/test_scenario.cpp pins the compile count).
    const scenario::Scenario compiled = scenario::Scenario::compile(
        dag, scenario::FailureSpec(model), grid.retry);

    EvalOptions options = grid.options;
    options.seed = scenario_seed;

    double reference_mean = std::numeric_limits<double>::quiet_NaN();
    for (std::size_t mi = 0; mi < methods_per_scenario; ++mi) {
      const std::string& name = (*methods)[mi];
      SweepCell& cell = cells[si * methods_per_scenario + mi];
      cell.generator = generator;
      cell.size = size;
      cell.tasks = dag.task_count();
      cell.edges = dag.edge_count();
      cell.pfail = pfail;
      cell.lambda = model.lambda;
      cell.method = name;
      cell.seed = scenario_seed;

      // One pooled workspace per WORKER THREAD (not per cell): every
      // method this worker runs, on this cell and all later ones, leases
      // from the same warm arenas — the steady-state zero-allocation
      // regime for the whole analytic part of the grid.
      cell.result = registry_->find(name)->evaluate(compiled, options,
                                                    Workspace::local());
      if (name == grid.reference && cell.result.supported) {
        reference_mean = cell.result.mean;
      }
    }
    // Second pass: relative errors need the reference mean, which may be
    // produced by any position in the method order.
    for (std::size_t mi = 0; mi < methods_per_scenario; ++mi) {
      SweepCell& cell = cells[si * methods_per_scenario + mi];
      cell.reference_mean = reference_mean;
      if (cell.result.supported && std::isfinite(reference_mean) &&
          reference_mean != 0.0) {
        cell.relative_error =
            (cell.result.mean - reference_mean) / reference_mean;
      }
    }
  });

  SweepResult result;
  result.cells = std::move(cells);
  result.retry = grid.retry;
  result.reference = grid.reference;
  result.base_seed = grid.base_seed;
  result.mc_trials = grid.options.mc_trials;
  result.seconds = timer.seconds();
  return result;
}

std::string SweepResult::json(bool include_timing) const {
  std::vector<util::JsonWriter> rows;
  rows.reserve(cells.size());
  for (const SweepCell& cell : cells) {
    util::JsonWriter w;
    w.field("generator", cell.generator)
        .field("size", cell.size)
        .field("tasks", cell.tasks)
        .field("edges", cell.edges)
        .field("pfail", cell.pfail)
        .field("lambda", cell.lambda)
        .field("method", cell.method)
        .field("seed", cell.seed)
        .field("supported", cell.result.supported)
        .field("mean", cell.result.mean)
        // v3: the certified truncation envelope around `mean` (degenerate
        // lo == hi == mean when no atom-cap truncation fired; see
        // exp/evaluator.hpp).
        .field("mean_lo", cell.result.mean_lo)
        .field("mean_hi", cell.result.mean_hi)
        .field("std_error", cell.result.std_error)
        .field("reference_mean", cell.reference_mean)
        .field("relative_error", cell.relative_error)
        // v2: conditional-MC censoring is structural, not string-encoded
        // in `note` (see mc/conditional.hpp).
        .field("censored_trials", cell.result.censored_trials)
        .field("note", cell.result.note);
    if (include_timing) w.field("seconds", cell.result.seconds);
    rows.push_back(std::move(w));
  }
  util::JsonWriter top;
  top.field("schema", "expmk-sweep-v3")
      .field("retry", retry_name(retry))
      .field("reference", reference)
      .field("base_seed", base_seed)
      .field("mc_trials", mc_trials)
      .field("cell_count", cells.size());
  if (include_timing) top.field("seconds", seconds);
  top.array("cells", rows);
  return top.str();
}

std::string SweepResult::csv() const {
  std::string out =
      "generator,size,tasks,edges,pfail,lambda,method,seed,supported,mean,"
      "mean_lo,mean_hi,std_error,reference_mean,relative_error,"
      "censored_trials,seconds,note\n";
  for (const SweepCell& cell : cells) {
    out += cell.generator + ',' + std::to_string(cell.size) + ',' +
           std::to_string(cell.tasks) + ',' + std::to_string(cell.edges) +
           ',' + num(cell.pfail) + ',' + num(cell.lambda) + ',' +
           cell.method + ',' + std::to_string(cell.seed) + ',' +
           (cell.result.supported ? "1" : "0") + ',' + num(cell.result.mean) +
           ',' + num(cell.result.mean_lo) + ',' + num(cell.result.mean_hi) +
           ',' + num(cell.result.std_error) + ',' + num(cell.reference_mean) +
           ',' + num(cell.relative_error) + ',' +
           std::to_string(cell.result.censored_trials) + ',' +
           num(cell.result.seconds) + ',';
    // Notes are free text (exception messages): strip the CSV-hostile
    // characters rather than introduce quoting into a schema consumers
    // already parse naively.
    for (const char c : cell.result.note) {
      out += (c == ',' || c == '\n' || c == '\r') ? ' ' : c;
    }
    out += '\n';
  }
  return out;
}

void SweepResult::write_artifacts(const std::string& json_path,
                                  const std::string& csv_path,
                                  bool include_timing) const {
  if (!json_path.empty()) {
    std::ofstream f(json_path);
    if (!f) {
      throw std::runtime_error("SweepResult: cannot open " + json_path);
    }
    f << json(include_timing) << "\n";
  }
  if (!csv_path.empty()) {
    std::ofstream f(csv_path);
    if (!f) {
      throw std::runtime_error("SweepResult: cannot open " + csv_path);
    }
    f << csv();
  }
}

}  // namespace expmk::exp
