// bench/ablation_mc.cpp
//
// Ground-truth ablation: Monte-Carlo convergence (mean and CI vs trial
// count) and the control-variate estimator's variance reduction. Justifies
// the paper's 300,000-trial choice and our CV option.

#include <iostream>

#include "core/failure_model.hpp"
#include "gen/cholesky.hpp"
#include "mc/conditional.hpp"
#include "mc/engine.hpp"
#include "scenario/scenario.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

int main(int argc, char** argv) {
  using namespace expmk;
  util::Cli cli("ablation_mc",
                "Monte-Carlo convergence and control-variate effect");
  cli.add_int("k", 6, "Cholesky tile count");
  cli.add_double("pfail", 0.001, "per-average-task failure probability");
  cli.add_int("seed", 31337, "master seed");
  cli.add_flag("csv", "emit CSV");
  cli.parse(argc, argv);

  if (cli.get_int("k") < 1) cli.fail("--k must be >= 1");
  const auto g = gen::cholesky_dag(static_cast<int>(cli.get_int("k")));
  const double pfail = cli.get_double("pfail");
  // Plain and control-variate MC sample the paper's geometric simulator;
  // the conditional estimator is defined on the 2-state model.
  const auto geometric =
      scenario::Scenario::calibrated(g, pfail, core::RetryModel::Geometric);
  const auto two_state = scenario::Scenario::calibrated(g, pfail);

  const std::vector<std::uint64_t> trial_counts = {1'000,  3'000,   10'000,
                                                   30'000, 100'000, 300'000};
  util::Table table({"trials", "plain_mean", "plain_ci95", "cv_mean",
                     "cv_ci95", "var_reduction", "cond_mean", "cond_ci95",
                     "time_plain"});
  for (const std::uint64_t trials : trial_counts) {
    mc::McConfig plain;
    plain.trials = trials;
    plain.seed = static_cast<std::uint64_t>(cli.get_int("seed"));
    const auto rp = mc::run_monte_carlo(geometric, plain);

    mc::McConfig cv = plain;
    cv.control_variate = true;
    const auto rc = mc::run_monte_carlo(geometric, cv);

    mc::ConditionalMcConfig cond;
    cond.trials = trials;
    cond.seed = plain.seed;
    const auto rq = mc::run_conditional_monte_carlo(two_state, cond);

    table.begin_row();
    table.add_int(static_cast<std::int64_t>(trials));
    table.add_double(rp.mean);
    table.add_double(rp.ci95_half_width);
    table.add_double(rc.mean);
    table.add_double(rc.ci95_half_width);
    table.add_double(rc.variance_reduction);
    table.add_double(rq.mean);
    table.add_double(rq.ci95_half_width);
    table.add(util::format_duration(rp.seconds));
  }

  std::cout << "# Monte-Carlo convergence on Cholesky k=" << cli.get_int("k")
            << ", pfail=" << cli.get_double("pfail") << "\n";
  if (cli.get_flag("csv")) {
    table.print_csv(std::cout);
  } else {
    table.print_aligned(std::cout);
  }
  std::cout << '\n';
  return 0;
}
