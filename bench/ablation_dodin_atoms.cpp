// bench/ablation_dodin_atoms.cpp
//
// Design-choice ablation (DESIGN.md): Dodin's distributions are capped at
// K atoms with mean-preserving merges. Sweep K and measure the estimate,
// the drift vs the largest budget, and the runtime — showing the paper's
// Dodin accuracy is limited by SP-ization, not by our truncation.

#include <cmath>
#include <iostream>

#include "core/failure_model.hpp"
#include "exp/workspace.hpp"
#include "gen/cholesky.hpp"
#include "scenario/scenario.hpp"
#include "spgraph/dodin.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

int main(int argc, char** argv) {
  using namespace expmk;
  util::Cli cli("ablation_dodin_atoms",
                "Dodin estimate and cost vs distribution atom budget");
  cli.add_int("k", 6, "Cholesky tile count");
  cli.add_double("pfail", 0.001, "per-average-task failure probability");
  cli.add_flag("csv", "emit CSV");
  cli.parse(argc, argv);

  if (cli.get_int("k") < 1) cli.fail("--k must be >= 1");
  const auto g = gen::cholesky_dag(static_cast<int>(cli.get_int("k")));
  const auto sc = scenario::Scenario::compile(
      g, core::calibrate(g, cli.get_double("pfail")));

  const std::vector<std::size_t> budgets = {8, 16, 32, 64, 128, 256, 512};
  std::vector<double> estimates;
  std::vector<double> seconds;
  std::vector<std::size_t> duplications;
  for (const std::size_t k_atoms : budgets) {
    const util::Timer t;
    exp::Workspace ws;
    const auto r = sp::dodin_two_state_flat(sc, {.max_atoms = k_atoms}, ws);
    seconds.push_back(t.seconds());
    estimates.push_back(r.mean);
    duplications.push_back(r.duplications);
  }

  const double reference = estimates.back();
  util::Table table({"max_atoms", "estimate", "drift_vs_512", "duplications",
                     "time"});
  for (std::size_t i = 0; i < budgets.size(); ++i) {
    table.begin_row();
    table.add_int(static_cast<std::int64_t>(budgets[i]));
    table.add_double(estimates[i]);
    table.add_signed_sci((estimates[i] - reference) / reference);
    table.add_int(static_cast<std::int64_t>(duplications[i]));
    table.add(util::format_duration(seconds[i]));
  }

  std::cout << "# Dodin atom-budget ablation on Cholesky k="
            << cli.get_int("k") << ", pfail=" << cli.get_double("pfail")
            << "\n";
  if (cli.get_flag("csv")) {
    table.print_csv(std::cout);
  } else {
    table.print_aligned(std::cout);
  }
  std::cout << '\n';
  return 0;
}
