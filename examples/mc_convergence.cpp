// examples/mc_convergence.cpp
//
// Visual tour of the Monte-Carlo engine: runs the ground-truth estimator
// on a Cholesky DAG at increasing trial counts, prints the confidence-
// interval shrinkage, shows the control-variate boost, and renders an
// ASCII histogram of the makespan distribution (the quantity whose mean
// everything else approximates).
//
//   $ ./mc_convergence --k 6 --pfail 0.01

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "core/failure_model.hpp"
#include "core/first_order.hpp"
#include "gen/cholesky.hpp"
#include "mc/engine.hpp"
#include "prob/discrete_distribution.hpp"
#include "scenario/scenario.hpp"
#include "util/cli.hpp"

int main(int argc, char** argv) {
  using namespace expmk;
  util::Cli cli("mc_convergence", "Monte-Carlo convergence demo");
  cli.add_int("k", 6, "Cholesky tile count");
  cli.add_double("pfail", 0.01, "per-average-task failure probability");
  cli.add_int("seed", 17, "master seed");
  cli.parse(argc, argv);
  if (cli.get_int("k") < 1) cli.fail("--k must be >= 1");

  const auto g = gen::cholesky_dag(static_cast<int>(cli.get_int("k")));
  // Monte-Carlo samples the paper's geometric retry model; the
  // first-order estimate is model-independent to O(lambda^2).
  const auto sc = scenario::Scenario::calibrated(
      g, cli.get_double("pfail"), core::RetryModel::Geometric);
  exp::Workspace ws;

  std::printf("Cholesky k=%lld: %zu tasks, lambda=%.5f\n",
              static_cast<long long>(cli.get_int("k")), g.task_count(),
              sc.uniform_model().lambda);
  std::printf("first-order estimate: %.6f s\n\n",
              core::first_order(sc, ws).expected_makespan());

  std::printf("%-10s %-12s %-12s %-14s %-12s\n", "trials", "mean",
              "ci95", "cv_ci95", "var_redux");
  for (const std::uint64_t trials :
       {1'000ULL, 10'000ULL, 100'000ULL, 300'000ULL}) {
    mc::McConfig cfg;
    cfg.trials = trials;
    cfg.seed = static_cast<std::uint64_t>(cli.get_int("seed"));
    const auto plain = mc::run_monte_carlo(sc, cfg);
    cfg.control_variate = true;
    const auto cv = mc::run_monte_carlo(sc, cfg);
    std::printf("%-10llu %-12.6f %-12.6f %-14.6f %-12.2f\n",
                static_cast<unsigned long long>(trials), plain.mean,
                plain.ci95_half_width, cv.ci95_half_width,
                cv.variance_reduction);
  }

  // Histogram of the makespan distribution.
  mc::McConfig cfg;
  cfg.trials = 100'000;
  cfg.seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  cfg.capture_samples = true;
  const auto r = mc::run_monte_carlo(sc, cfg);
  std::printf("\nmakespan distribution (100k samples): min=%.4f max=%.4f\n",
              r.min, r.max);
  // The samples as an empirical law, mass 1/n each: quantiles are the
  // smallest sampled makespan whose CDF reaches p, and each bar is the
  // CDF difference across one of 24 equal bins over [min, max].
  const double n = static_cast<double>(r.samples.size());
  std::vector<prob::Atom> atoms;
  atoms.reserve(r.samples.size());
  for (const double x : r.samples) atoms.push_back({x, 1.0 / n});
  const auto law = prob::DiscreteDistribution::from_atoms(std::move(atoms));
  std::printf("quantiles: p50=%.4f p90=%.4f p99=%.4f\n", law.quantile(0.50),
              law.quantile(0.90), law.quantile(0.99));
  constexpr int kBins = 24;
  const double width = (law.max() - law.min()) / kBins;
  std::vector<double> mass(kBins);
  double below = 0.0;  // CDF at the bin's lower edge
  for (int b = 0; b < kBins; ++b) {
    const double upto =
        b + 1 == kBins ? 1.0 : law.cdf(law.min() + (b + 1) * width);
    mass[b] = upto - below;
    below = upto;
  }
  const double peak = *std::max_element(mass.begin(), mass.end());
  for (int b = 0; b < kBins; ++b) {
    const auto bar = static_cast<std::size_t>(mass[b] / peak * 48.0);
    std::printf("%g\t|%s  %lld\n", law.min() + (b + 0.5) * width,
                std::string(bar, '#').c_str(), std::llround(mass[b] * n));
  }
  return 0;
}
