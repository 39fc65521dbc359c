// examples/scheduling_advisor.cpp
//
// The paper's motivating use case, end to end: schedule a factorization
// DAG on P processors with CP list scheduling, once with classical bottom
// levels and once with the failure-aware (first-order expected) bottom
// levels, then stress both schedules with fault injection and report
// which priority scheme holds up better.
//
//   $ ./scheduling_advisor --class lu --k 8 --p 4 --pfail 0.01

#include <cstdio>
#include <string>

#include "core/failure_model.hpp"
#include "gen/cholesky.hpp"
#include "gen/lu.hpp"
#include "gen/qr.hpp"
#include "scenario/scenario.hpp"
#include "sched/fault_sim.hpp"
#include "util/cli.hpp"

int main(int argc, char** argv) {
  using namespace expmk;
  util::Cli cli("scheduling_advisor",
                "Failure-aware CP scheduling vs classical CP scheduling");
  cli.add_string("class", "lu", "dag class: cholesky | lu | qr");
  cli.add_int("k", 8, "tile count");
  cli.add_int("p", 4, "processors");
  cli.add_double("pfail", 0.01, "per-average-task failure probability");
  cli.add_int("runs", 2000, "fault-injection runs");
  cli.parse(argc, argv);

  const int k = static_cast<int>(cli.get_int("k"));
  const std::string cls = cli.get_string("class");
  graph::Dag g = cls == "cholesky" ? gen::cholesky_dag(k)
                 : cls == "qr"     ? gen::qr_dag(k)
                                   : gen::lu_dag(k);

  // Fault injection samples the geometric retry model.
  const auto sc = scenario::Scenario::calibrated(
      g, cli.get_double("pfail"), core::RetryModel::Geometric);
  const sched::Machine machine(static_cast<std::size_t>(cli.get_int("p")));

  std::printf("%s k=%d: %zu tasks, critical path %.3f s, lambda %.5f, "
              "P=%zu\n\n",
              cls.c_str(), k, g.task_count(),
              sc.critical_path(), sc.uniform_model().lambda,
              machine.processors());

  const auto classic =
      sched::priorities(sc, sched::PriorityKind::BottomLevel);
  const auto aware =
      sched::priorities(sc, sched::PriorityKind::FailureAwareBottomLevel);

  sched::FaultSimConfig cfg;
  cfg.runs = static_cast<std::uint64_t>(cli.get_int("runs"));
  exp::Workspace ws;
  const auto r_classic =
      sched::simulate_with_faults(sc, classic, machine, cfg, ws);
  const auto r_aware =
      sched::simulate_with_faults(sc, aware, machine, cfg, ws);

  std::printf("%-26s %-12s %-12s %-12s %-12s\n", "priority scheme",
              "failure-free", "mean", "p95-ish(max)", "ci95");
  std::printf("%-26s %-12.4f %-12.4f %-12.4f %-12.5f\n",
              "classical bottom level", r_classic.failure_free_makespan,
              r_classic.makespan.mean(), r_classic.makespan.max(),
              r_classic.makespan.ci_half_width(0.95));
  std::printf("%-26s %-12.4f %-12.4f %-12.4f %-12.5f\n",
              "failure-aware (1st order)", r_aware.failure_free_makespan,
              r_aware.makespan.mean(), r_aware.makespan.max(),
              r_aware.makespan.ci_half_width(0.95));

  const double gain = (r_classic.makespan.mean() - r_aware.makespan.mean()) /
                      r_classic.makespan.mean();
  std::printf("\nfailure-aware priorities change the mean makespan by "
              "%+.3f%% under injected silent errors.\n", 100.0 * gain);
  std::printf("(On these dense factorization DAGs the two rankings often "
              "coincide at low pfail — the paper's point is that the\n"
              " failure-aware ranking is now *computable*: first-order "
              "bottom levels for all %zu tasks cost O(V(V+E)).)\n",
              g.task_count());
  return 0;
}
