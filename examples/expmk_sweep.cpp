// examples/expmk_sweep.cpp
//
// One-command reproduction of the paper's accuracy/runtime comparison
// (Section V): expands a generators x sizes x pfails x methods grid, runs
// every estimator against the Monte-Carlo reference, prints paper-style
// accuracy and runtime tables, and writes the machine-readable sweep
// artifacts (JSON is the deterministic record — byte-identical for any
// thread count; the CSV carries wall-clock timings).
//
//   expmk_sweep                                  # LU/QR/Cholesky table
//   expmk_sweep --generators lu --sizes 8,12 --pfails 1e-4,1e-3,1e-2
//   expmk_sweep --methods fo,so,dodin,sculli --reference mc --trials 100000
//   expmk_sweep --generators cholesky --sizes 8 --retry geometric \
//       --pfails 0.05,0.02,0.01,0.005,0.002,0.001,0.0001 --methods fo,so
//                                                # first vs second order
//   expmk_sweep --list                           # method catalogue

#include <cmath>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "exp/evaluator.hpp"
#include "exp/sweep.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

namespace {

using namespace expmk;

void print_catalogue() {
  const auto& reg = exp::EvaluatorRegistry::builtin();
  std::printf("%-14s %-9s %-10s %s\n", "method", "2-state", "geometric",
              "description");
  for (const auto& e : reg.evaluators()) {
    const auto& c = e.capabilities();
    std::printf("%-14s %-9s %-10s %s\n", std::string(e.name()).c_str(),
                c.two_state ? "yes" : "no", c.geometric ? "yes" : "no",
                std::string(e.description()).c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli("expmk_sweep",
                "Accuracy/runtime sweep over DAG families, failure rates "
                "and estimation methods");
  cli.add_string("generators", "lu,qr,cholesky",
                 "comma list: lu|qr|cholesky|layered|erdos|sp|chain|forkjoin");
  cli.add_string("sizes", "6", "comma list of size parameters (tile count k)");
  cli.add_string("pfails", "0.0001,0.001,0.01",
                 "comma list of per-average-task failure probabilities");
  cli.add_string("methods", "fo,so,dodin,sculli,corlca,clark",
                 "comma list of methods (see --list)");
  cli.add_string("reference", "mc",
                 "reference method for relative errors ('' = none)");
  cli.add_string("retry", "twostate", "twostate|geometric");
  cli.add_int("trials", 300'000, "Monte-Carlo trials (the paper's count)");
  cli.add_int("seed", 2016, "sweep base seed");
  cli.add_int("sweep-threads", 1,
              "scenario-level workers (0 = hardware concurrency)");
  cli.add_int("eval-threads", 0,
              "threads inside one evaluation (0 = hardware concurrency)");
  cli.add_int("dodin-atoms", 256, "Dodin atom budget");
  cli.add_string("json", "sweep.json", "JSON artifact path ('' = skip)");
  cli.add_string("csv", "sweep.csv", "CSV artifact path ('' = skip)");
  cli.add_flag("timing", "include wall-clock timings in the JSON artifact "
                         "(breaks byte-identity across runs)");
  cli.add_flag("list", "print the method catalogue and exit");
  cli.add_flag("quiet", "skip the aligned tables (artifacts only)");
  cli.parse(argc, argv);

  if (cli.get_flag("list")) {
    print_catalogue();
    return 0;
  }

  exp::SweepGrid grid;
  grid.generators = cli.get_list("generators");
  grid.sizes = cli.get_ints("sizes");
  grid.pfails = cli.get_doubles("pfails");
  grid.methods = cli.get_list("methods");
  grid.reference = cli.get_string("reference");
  grid.base_seed = cli.get_count("seed");
  const std::string retry = cli.get_string("retry");
  if (retry == "twostate") {
    grid.retry = core::RetryModel::TwoState;
  } else if (retry == "geometric") {
    grid.retry = core::RetryModel::Geometric;
  } else {
    cli.fail("unknown retry model '" + retry + "'");
  }
  grid.options.mc_trials = cli.get_count("trials");
  grid.options.threads = cli.get_count("eval-threads");
  grid.options.dodin_atoms = cli.get_count("dodin-atoms");

  const exp::SweepRunner runner;
  exp::SweepResult result;
  try {
    result = runner.run(grid, cli.get_count("sweep-threads"));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sweep failed: %s\n", e.what());
    return 1;
  }

  // Cells are scenario-major with a fixed method count per scenario.
  const std::size_t scenarios =
      grid.generators.size() * grid.sizes.size() * grid.pfails.size();
  const std::size_t per_scenario = result.cells.size() / scenarios;

  if (!cli.get_flag("quiet")) {
    // Columns follow the cell order (reference first unless the user
    // listed it elsewhere), so header and row positions always agree.
    std::vector<std::string> header = {"graph", "k", "tasks", "pfail"};
    for (std::size_t mi = 0; mi < per_scenario; ++mi) {
      const auto& cell = result.cells[mi];
      header.push_back(cell.method == grid.reference ? cell.method + " mean"
                                                     : cell.method);
    }
    util::Table accuracy(header);
    util::Table runtime(header);
    for (std::size_t si = 0; si < scenarios; ++si) {
      const auto* row = &result.cells[si * per_scenario];
      accuracy.begin_row();
      runtime.begin_row();
      for (auto* t : {&accuracy, &runtime}) {
        t->add(row[0].generator);
        t->add_int(row[0].size);
        t->add_int(static_cast<std::int64_t>(row[0].tasks));
        t->add_double(row[0].pfail);
      }
      for (std::size_t mi = 0; mi < per_scenario; ++mi) {
        const auto& cell = row[mi];
        if (!cell.result.supported) {
          accuracy.add("n/a");
          runtime.add("n/a");
        } else if (cell.method == grid.reference) {
          accuracy.add_double(cell.result.mean);
          runtime.add_double(cell.result.seconds);
        } else if (std::isfinite(cell.relative_error)) {
          accuracy.add_signed_sci(cell.relative_error);
          runtime.add_double(cell.result.seconds);
        } else {
          // No usable reference on this scenario (none configured, or it
          // was itself unsupported): show the method's absolute mean
          // rather than a meaningless NaN.
          accuracy.add_double(cell.result.mean);
          runtime.add_double(cell.result.seconds);
        }
      }
    }
    std::printf("Relative error vs %s (signed normalized difference; %s "
                "retry model, %llu trials):\n",
                grid.reference.empty() ? "-" : grid.reference.c_str(),
                retry.c_str(),
                static_cast<unsigned long long>(grid.options.mc_trials));
    accuracy.print_aligned(std::cout);
    std::printf("\nRuntime (seconds):\n");
    runtime.print_aligned(std::cout);
    std::printf("\nsweep wall-clock: %.2f s, %zu cells\n", result.seconds,
                result.cells.size());
  }

  try {
    result.write_artifacts(cli.get_string("json"), cli.get_string("csv"),
                           cli.get_flag("timing"));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "artifact write failed: %s\n", e.what());
    return 1;
  }
  if (!cli.get_string("json").empty()) {
    std::printf("wrote %s\n", cli.get_string("json").c_str());
  }
  if (!cli.get_string("csv").empty()) {
    std::printf("wrote %s\n", cli.get_string("csv").c_str());
  }
  return 0;
}
