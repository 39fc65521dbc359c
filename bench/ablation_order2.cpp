// bench/ablation_order2.cpp
//
// Extension experiment from the paper's conclusion: "our general approach
// ... can be used to obtain a second order approximation. While the
// improvement ... would be negligible for low failure rates, it may be
// significant for relatively high failure rates."
//
// Sweep pfail from harsh (0.05) to realistic (1e-4) on one DAG and report
// first-order vs second-order normalized differences against Monte-Carlo:
// the crossover behaviour predicted by the conclusion should be visible as
// a widening gap at high pfail.

#include <iostream>

#include "core/failure_model.hpp"
#include "core/first_order.hpp"
#include "core/second_order.hpp"
#include "gen/cholesky.hpp"
#include "mc/engine.hpp"
#include "scenario/scenario.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

int main(int argc, char** argv) {
  using namespace expmk;
  util::Cli cli("ablation_order2",
                "First- vs second-order accuracy across failure rates");
  cli.add_int("k", 8, "Cholesky tile count");
  cli.add_int("trials", 300'000, "Monte-Carlo trials");
  cli.add_int("seed", 424242, "Monte-Carlo master seed");
  cli.add_flag("csv", "emit CSV");
  cli.parse(argc, argv);

  const auto g = gen::cholesky_dag(static_cast<int>(cli.get_int("k")));
  const std::vector<double> pfails = {0.05,  0.02,  0.01, 0.005,
                                      0.002, 0.001, 0.0001};

  util::Table table({"pfail", "lambda", "mc_mean", "FO_diff", "SO_diff",
                     "abs(FO)/abs(SO)", "t_FO", "t_SO"});
  for (const double pfail : pfails) {
    const auto sc =
        scenario::Scenario::calibrated(g, pfail, core::RetryModel::Geometric);
    mc::McConfig cfg;
    cfg.trials = static_cast<std::uint64_t>(cli.get_int("trials"));
    cfg.seed = static_cast<std::uint64_t>(cli.get_int("seed"));
    const auto mc = mc::run_monte_carlo(sc, cfg);

    exp::Workspace ws;
    const util::Timer t_fo;
    const double fo = core::first_order(sc, ws).expected_makespan();
    const double fo_seconds = t_fo.seconds();
    const util::Timer t_so;
    const double so = core::second_order(sc, ws).expected_makespan;
    const double so_seconds = t_so.seconds();

    const double fo_diff = (fo - mc.mean) / mc.mean;
    const double so_diff = (so - mc.mean) / mc.mean;
    table.begin_row();
    table.add_double(pfail);
    table.add_double(sc.uniform_model().lambda);
    table.add_double(mc.mean);
    table.add_signed_sci(fo_diff);
    table.add_signed_sci(so_diff);
    table.add_double(so_diff != 0.0
                         ? std::abs(fo_diff) / std::abs(so_diff)
                         : 0.0);
    table.add(util::format_duration(fo_seconds));
    table.add(util::format_duration(so_seconds));
  }

  std::cout << "# Second-order ablation on Cholesky k=" << cli.get_int("k")
            << " (geometric retry model)\n";
  if (cli.get_flag("csv")) {
    table.print_csv(std::cout);
  } else {
    table.print_aligned(std::cout);
  }
  std::cout << '\n';
  return 0;
}
