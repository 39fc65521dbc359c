// bench/ablation_dvfs.cpp
//
// The DVFS trade-off experiment motivated by the paper's Section II-B:
// lowering the frequency saves energy (~s^2 per unit work) but raises the
// silent-error rate exponentially (equation (1), after Zhu, Melhem and
// Mosse):
//
//     lambda(s) = lambda0 * 10^( d * (smax - s) / (smax - smin) )
//
// where lambda0 is the rate at full speed smax and d the sensitivity.
// Running at speed s also divides every weight by s, so the expected
// makespan can *increase* faster than the pure slowdown. Sweeps the speed
// range [0.5, 1] and reports the first-order expected makespan, the pure
// time-dilation baseline d(G)/s, and relative energy, exposing the
// resilience-aware sweet spot. Energy follows the cubic dynamic-power
// law: power ~ s^3 times the expected busy time (re-executed work pays
// again), normalized so full speed = 1.

#include <cmath>
#include <iostream>
#include <limits>

#include "core/failure_model.hpp"
#include "core/first_order.hpp"
#include "gen/cholesky.hpp"
#include "scenario/scenario.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace expmk;
  util::Cli cli("ablation_dvfs",
                "Energy vs expected-makespan trade-off under equation (1)");
  cli.add_int("k", 8, "Cholesky tile count");
  cli.add_double("lambda0", 0.005, "error rate at full speed");
  cli.add_double("sensitivity", 3.0, "equation (1) exponent d");
  cli.add_flag("csv", "emit CSV");
  cli.parse(argc, argv);
  if (cli.get_int("k") < 1) cli.fail("--k must be >= 1");

  const auto g = gen::cholesky_dag(static_cast<int>(cli.get_int("k")));
  const double lambda0 = cli.get_double("lambda0");
  const double sensitivity = cli.get_double("sensitivity");
  if (lambda0 < 0.0 || sensitivity < 0.0) {
    cli.fail("--lambda0 and --sensitivity must be >= 0");
  }
  constexpr double kSmin = 0.5;
  constexpr double kSmax = 1.0;
  constexpr int kSteps = 10;

  // Expected busy time at speed s and rate lambda: re-executed work pays
  // again. Full speed gives the energy normalizer.
  const auto busy_time = [&g](double lambda, double s) {
    const core::FailureModel fm{lambda};
    double busy = 0.0;
    for (graph::TaskId i = 0; i < g.task_count(); ++i) {
      busy += fm.expected_duration(g.weight(i) / s, core::RetryModel::TwoState);
    }
    return busy;
  };
  const double full_busy = busy_time(lambda0, kSmax);

  util::Table table({"speed", "lambda", "d(G)/s", "E[makespan]",
                     "error_overhead", "relative_energy"});
  graph::Dag scaled = g;
  exp::Workspace ws;
  double best_speed = kSmax;
  double best = std::numeric_limits<double>::infinity();
  for (int step = 0; step <= kSteps; ++step) {
    const double s =
        kSmin + (kSmax - kSmin) * step / static_cast<double>(kSteps);
    const double lambda =
        lambda0 * std::pow(10.0, sensitivity * (kSmax - s) / (kSmax - kSmin));
    for (graph::TaskId i = 0; i < g.task_count(); ++i) {
      scaled.set_weight(i, g.weight(i) / s);
    }
    const auto fo = core::first_order(
        scenario::Scenario::compile(scaled,
                                    scenario::FailureSpec::uniform(lambda)),
        ws);

    const double ratio = s / kSmax;
    const double energy = ratio * ratio * ratio * busy_time(lambda, s);

    table.begin_row();
    table.add_double(s);
    table.add_double(lambda);
    table.add_double(fo.critical_path);
    table.add_double(fo.expected_makespan());
    table.add_signed_sci(fo.expected_makespan() / fo.critical_path - 1.0);
    table.add_double(energy / full_busy);
    if (fo.expected_makespan() < best) {
      best = fo.expected_makespan();
      best_speed = s;
    }
  }

  std::cout << "# DVFS ablation on Cholesky k=" << cli.get_int("k")
            << ": lambda0=" << lambda0 << ", d=" << sensitivity << "\n";
  if (cli.get_flag("csv")) {
    table.print_csv(std::cout);
  } else {
    table.print_aligned(std::cout);
  }
  std::cout << "# makespan-optimal speed: " << best_speed << "\n\n";
  return 0;
}
