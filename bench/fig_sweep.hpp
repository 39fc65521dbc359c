// bench/fig_sweep.hpp
//
// The common driver behind fig_cholesky / fig_lu / fig_qr: sweep graph
// size k in {4,6,8,10,12} x pfail in {1e-2,1e-3,1e-4} and print one row
// per (figure, k) — the series the paper plots in Figures 4-12.

#pragma once

#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "graph/csr.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace expmk::bench {

/// Runs the full sweep for one DAG class (an exp::SweepRunner generator).
/// `first_figure` is the paper's figure number at pfail = 0.01 (figures
/// for 1e-3 / 1e-4 follow consecutively, matching the paper's layout).
inline int run_fig_sweep(int argc, const char* const* argv,
                         const std::string& class_name, int first_figure) {
  util::Cli cli("fig_" + class_name,
                "Reproduces the paper's " + class_name +
                    " accuracy figures (relative error vs Monte-Carlo)");
  cli.add_int("trials", 300'000, "Monte-Carlo trials per cell");
  cli.add_int("seed", 2016, "Monte-Carlo master seed");
  cli.add_int("dodin-atoms", 256, "atom budget for Dodin distributions");
  cli.add_string("sizes", "4,6,8,10,12", "comma-separated k values");
  cli.add_flag("csv", "emit CSV instead of aligned tables");
  cli.add_flag("extended", "also run second-order / CorLCA / Clark-full");
  cli.parse(argc, argv);

  const bool extended = cli.get_flag("extended");
  exp::SweepGrid grid;
  grid.generators = {class_name};
  grid.sizes = cli.get_ints("sizes");
  grid.pfails = {0.01, 0.001, 0.0001};
  grid.methods = {"fo", "dodin", "sculli"};
  if (extended) grid.methods.insert(grid.methods.end(), {"corlca", "clark"});
  grid.base_seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  grid.options.mc_trials = cli.get_count("trials");
  grid.options.dodin_atoms = cli.get_count("dodin-atoms");

  std::vector<std::string> header = {
      "figure", "class",      "k",       "tasks",   "pfail",
      "mc_mean", "mc_ci95",   "d(G)",    "FirstOrder", "Dodin",
      "Normal"};
  std::vector<std::string> errors = {"fo", "dodin", "sculli"};
  if (extended) {
    header.insert(header.end(), {"SecondOrder", "CorLCA", "ClarkFull"});
    errors.insert(errors.end(), {"so", "corlca", "clark"});
  }
  header.insert(header.end(), {"t_FO", "t_Dodin", "t_Normal", "t_MC"});
  util::Table table(header);

  const util::Timer total;
  const PaperSweep sweep = run_paper_sweep(
      cli, grid, extended ? std::vector<std::string>{"so"}
                          : std::vector<std::string>{});
  const std::size_t pfails = grid.pfails.size();
  for (std::size_t pi = 0; pi < pfails; ++pi) {
    for (std::size_t ki = 0; ki < grid.sizes.size(); ++ki) {
      const std::size_t si = ki * pfails + pi;
      const exp::SweepCell& mc = sweep.at(si, "mc");
      table.begin_row();
      table.add("Fig." + std::to_string(first_figure + static_cast<int>(pi)));
      table.add(class_name);
      table.add_int(mc.size);
      table.add_int(static_cast<std::int64_t>(mc.tasks));
      table.add_double(mc.pfail);
      table.add_double(mc.result.mean);
      table.add_double(ci95(mc));
      table.add_double(graph::critical_path_length(
          exp::SweepRunner::build_dag(class_name, mc.size, 0)));
      for (const std::string& m : errors) {
        table.add_signed_sci(sweep.at(si, m).relative_error);
      }
      for (const char* m : {"fo", "dodin", "sculli", "mc"}) {
        table.add(util::format_duration(sweep.at(si, m).result.seconds));
      }
    }
  }

  std::cout << "# " << class_name << " accuracy sweep — normalized "
            << "difference (estimate - MC)/MC, negative = underestimate\n";
  if (cli.get_flag("csv")) {
    table.print_csv(std::cout);
  } else {
    table.print_aligned(std::cout);
  }
  std::cout << "# total wall time: " << util::format_duration(total.seconds())
            << "\n\n";
  return 0;
}

}  // namespace expmk::bench
