// bench/ablation_normal_variants.cpp
//
// Normal-family ablation: the paper's "Normal" is Sculli's method
// (independence assumed in every Clark fold). How much of its error is
// the ignored correlation? Compare Sculli, CorLCA (correlation through
// the dominant-ancestor tree) and full Clark covariance propagation on
// all three DAG classes.

#include <iostream>

#include "bench_common.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

int main(int argc, char** argv) {
  using namespace expmk;
  util::Cli cli("ablation_normal_variants",
                "Sculli vs CorLCA vs full Clark covariance");
  cli.add_int("k", 8, "tile count");
  cli.add_double("pfail", 0.01, "per-average-task failure probability");
  cli.add_int("trials", 300'000, "Monte-Carlo trials");
  cli.add_int("seed", 7, "Monte-Carlo master seed");
  cli.add_flag("csv", "emit CSV");
  cli.parse(argc, argv);

  exp::SweepGrid grid;
  grid.generators = {"cholesky", "lu", "qr"};
  grid.sizes = {static_cast<int>(cli.get_int("k"))};
  grid.pfails = {cli.get_double("pfail")};
  grid.methods = {"sculli", "corlca", "clark"};
  grid.base_seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  grid.options.mc_trials = cli.get_count("trials");
  const bench::PaperSweep sweep = bench::run_paper_sweep(cli, grid, {});

  util::Table table({"class", "mc_mean", "Sculli_diff", "CorLCA_diff",
                     "ClarkFull_diff", "t_Sculli", "t_CorLCA",
                     "t_ClarkFull"});
  for (std::size_t si = 0; si < grid.generators.size(); ++si) {
    table.begin_row();
    table.add(grid.generators[si]);
    table.add_double(sweep.at(si, "mc").result.mean);
    for (const std::string& m : grid.methods) {
      table.add_signed_sci(sweep.at(si, m).relative_error);
    }
    for (const std::string& m : grid.methods) {
      table.add(util::format_duration(sweep.at(si, m).result.seconds));
    }
  }

  std::cout << "# Normal-variant ablation, k=" << cli.get_int("k")
            << ", pfail=" << cli.get_double("pfail") << "\n";
  if (cli.get_flag("csv")) {
    table.print_csv(std::cout);
  } else {
    table.print_aligned(std::cout);
  }
  std::cout << '\n';
  return 0;
}
