// bench/ablation_normal_variants.cpp
//
// Normal-family ablation: the paper's "Normal" is Sculli's method
// (independence assumed in every Clark fold). How much of its error is
// the ignored correlation? Compare Sculli, CorLCA (correlation through
// the dominant-ancestor tree) and full Clark covariance propagation on
// all three DAG classes.

#include <iostream>

#include "core/failure_model.hpp"
#include "gen/cholesky.hpp"
#include "gen/lu.hpp"
#include "gen/qr.hpp"
#include "mc/engine.hpp"
#include "normal/clark_full.hpp"
#include "normal/corlca.hpp"
#include "normal/sculli.hpp"
#include "scenario/scenario.hpp"
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

  const int k = static_cast<int>(cli.get_int("k"));
  struct Class {
    const char* name;
    graph::Dag dag;
  };
  std::vector<Class> classes;
  classes.push_back({"cholesky", gen::cholesky_dag(k)});
  classes.push_back({"lu", gen::lu_dag(k)});
  classes.push_back({"qr", gen::qr_dag(k)});

  util::Table table({"class", "mc_mean", "Sculli_diff", "CorLCA_diff",
                     "ClarkFull_diff", "t_Sculli", "t_CorLCA",
                     "t_ClarkFull"});
  for (const auto& c : classes) {
    const double pfail = cli.get_double("pfail");
    mc::McConfig cfg;
    cfg.trials = static_cast<std::uint64_t>(cli.get_int("trials"));
    cfg.seed = static_cast<std::uint64_t>(cli.get_int("seed"));
    const auto mc = mc::run_monte_carlo(
        scenario::Scenario::calibrated(c.dag, pfail,
                                       core::RetryModel::Geometric),
        cfg);

    const auto sc = scenario::Scenario::calibrated(c.dag, pfail);
    exp::Workspace ws;
    const util::Timer ts;
    const double s = normal::sculli(sc, ws).expected_makespan();
    const double t_s = ts.seconds();
    const util::Timer tc;
    const double co = normal::corlca(sc, ws).expected_makespan();
    const double t_c = tc.seconds();
    const util::Timer tf;
    const double f = normal::clark_full(sc, ws).expected_makespan();
    const double t_f = tf.seconds();

    table.begin_row();
    table.add(c.name);
    table.add_double(mc.mean);
    table.add_signed_sci((s - mc.mean) / mc.mean);
    table.add_signed_sci((co - mc.mean) / mc.mean);
    table.add_signed_sci((f - mc.mean) / mc.mean);
    table.add(util::format_duration(t_s));
    table.add(util::format_duration(t_c));
    table.add(util::format_duration(t_f));
  }

  std::cout << "# Normal-variant ablation, k=" << k
            << ", pfail=" << cli.get_double("pfail") << "\n";
  if (cli.get_flag("csv")) {
    table.print_csv(std::cout);
  } else {
    table.print_aligned(std::cout);
  }
  std::cout << '\n';
  return 0;
}
