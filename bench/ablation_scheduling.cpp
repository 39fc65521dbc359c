// bench/ablation_scheduling.cpp
//
// Future-work experiment from the paper's conclusion: "adapt existing list
// scheduling algorithms ... that rely on our proposed approximation to
// make scheduling decisions."
//
// Compare CP list scheduling with classical bottom levels vs the paper's
// failure-aware (first-order expected) bottom levels, under fault
// injection, across processor counts. Reports mean achieved makespans and
// the relative improvement.

#include <iostream>

#include "core/failure_model.hpp"
#include "gen/cholesky.hpp"
#include "gen/lu.hpp"
#include "scenario/scenario.hpp"
#include "sched/fault_sim.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace expmk;
  util::Cli cli("ablation_scheduling",
                "CP vs failure-aware CP list scheduling under faults");
  cli.add_int("k", 8, "tile count");
  cli.add_double("pfail", 0.01, "per-average-task failure probability");
  cli.add_int("runs", 2000, "fault-injection runs per configuration");
  cli.add_int("seed", 555, "fault-injection master seed");
  cli.add_flag("csv", "emit CSV");
  cli.parse(argc, argv);
  if (cli.get_int("k") < 1) cli.fail("--k must be >= 1");

  const int k = static_cast<int>(cli.get_int("k"));
  struct Class {
    const char* name;
    graph::Dag dag;
  };
  std::vector<Class> classes;
  classes.push_back({"cholesky", gen::cholesky_dag(k)});
  classes.push_back({"lu", gen::lu_dag(k)});

  util::Table table({"class", "P", "mean_CP", "mean_aware", "improvement",
                     "ff_CP", "ci95_CP"});
  for (const auto& c : classes) {
    // Fault injection samples the geometric retry model.
    const auto sc = scenario::Scenario::calibrated(
        c.dag, cli.get_double("pfail"), core::RetryModel::Geometric);
    const auto classic =
        sched::priorities(sc, sched::PriorityKind::BottomLevel);
    const auto aware =
        sched::priorities(sc, sched::PriorityKind::FailureAwareBottomLevel);
    exp::Workspace ws;

    for (const std::size_t p : {2u, 4u, 8u, 16u}) {
      const sched::Machine machine(p);
      sched::FaultSimConfig cfg;
      cfg.runs = cli.get_count("runs");
      cfg.seed = static_cast<std::uint64_t>(cli.get_int("seed"));
      const auto r_classic =
          sched::simulate_with_faults(sc, classic, machine, cfg, ws);
      const auto r_aware =
          sched::simulate_with_faults(sc, aware, machine, cfg, ws);

      table.begin_row();
      table.add(c.name);
      table.add_int(static_cast<std::int64_t>(p));
      table.add_double(r_classic.makespan.mean());
      table.add_double(r_aware.makespan.mean());
      table.add_signed_sci((r_classic.makespan.mean() -
                            r_aware.makespan.mean()) /
                           r_classic.makespan.mean());
      table.add_double(r_classic.failure_free_makespan);
      table.add_double(r_classic.makespan.ci_half_width(0.95));
    }
  }

  std::cout << "# Failure-aware scheduling ablation, k=" << k << ", pfail="
            << cli.get_double("pfail")
            << " (improvement > 0 means failure-aware wins)\n";
  if (cli.get_flag("csv")) {
    table.print_csv(std::cout);
  } else {
    table.print_aligned(std::cout);
  }
  std::cout << '\n';
  return 0;
}
