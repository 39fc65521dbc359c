#include "mc/conditional.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "exp/workspace.hpp"
#include "graph/csr.hpp"
#include "prob/rng.hpp"
#include "prob/statistics.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace expmk::mc {

namespace {

struct Accum {
  prob::RunningStats stats;
  std::uint64_t rejections = 0;
  std::uint64_t censored = 0;
};

}  // namespace

ConditionalMcResult run_conditional_monte_carlo(
    const scenario::Scenario& sc, const ConditionalMcConfig& config) {
  if (sc.retry() != core::RetryModel::TwoState) {
    throw std::invalid_argument(
        "run_conditional_monte_carlo: scenario must be compiled with the "
        "TwoState retry model");
  }
  if (config.trials == 0) {
    throw std::invalid_argument(
        "run_conditional_monte_carlo: trials must be >= 1");
  }
  if (config.max_rejections_per_trial == 0) {
    throw std::invalid_argument(
        "run_conditional_monte_carlo: max_rejections_per_trial must be >= 1");
  }
  const util::Timer timer;
  const graph::CsrDag& csr = sc.csr();
  const std::size_t n = sc.task_count();

  ConditionalMcResult result;
  result.critical_path = sc.critical_path();

  // Folded in CSR position order; the order fixes p0's rounding.
  double p0 = 1.0;
  for (const double pi : sc.p_success_csr()) p0 *= pi;
  result.p_zero_failures = p0;

  if (p0 >= 1.0) {
    // No task can ever fail: the makespan is deterministic.
    result.mean = result.critical_path;
    result.conditional_mean = result.critical_path;
    result.trials = 0;
    result.seconds = timer.seconds();
    return result;
  }

  const std::size_t workers = util::resolve_threads(config.threads);
  const std::uint64_t trials = config.trials;
  const std::size_t chunks = std::min<std::uint64_t>(kEngineChunks, trials);

  std::vector<Accum> accums(chunks);
  util::for_each_chunk(workers, chunks, [&](std::size_t c) {
    Accum& acc = accums[c];
    const std::uint64_t begin = trials * c / chunks;
    const std::uint64_t end = trials * (c + 1) / chunks;
    // Per-chunk scratch (CSR position order), leased from this thread's
    // pooled workspace.
    exp::Workspace& ws = exp::Workspace::local();
    const exp::Workspace::Frame frame(ws);
    const std::span<double> durations = ws.doubles(n);
    const std::span<double> finish = ws.doubles(n);
    for (std::uint64_t t = begin; t < end; ++t) {
      prob::McRng rng(config.seed, t);
      // Rejection: redraw the failure pattern until at least one failure.
      // If the cap is hit first (only plausible when 1 - p0 is
      // microscopic), the trial is *censored*: it contributes nothing to
      // the conditional statistics. Fabricating a sample instead — e.g.
      // the failure-free makespan — would pull the conditional mean
      // toward d(G) and bias the combined estimate downward.
      bool any = false;
      std::uint64_t attempts = 0;
      while (!any && attempts < config.max_rejections_per_trial) {
        ++attempts;
        any = sample_durations(sc, rng, durations) > 0;
      }
      if (any) {
        acc.rejections += attempts - 1;
        acc.stats.push(graph::critical_path_length(csr, durations, finish));
      } else {
        acc.rejections += attempts;
        ++acc.censored;
      }
    }
  });

  prob::RunningStats stats;
  std::uint64_t rejections = 0;
  std::uint64_t censored = 0;
  for (const Accum& acc : accums) {
    stats.merge(acc.stats);
    rejections += acc.rejections;
    censored += acc.censored;
  }

  result.censored_trials = censored;
  if (stats.count() == 0) {
    // Every trial censored: no conditional sample survived. Report the
    // only defensible fallback — d(G) — for the conditional stratum; its
    // weight (1 - p0) is microscopic by construction (the cap can only
    // bind when failures are astronomically rare), so the combined mean
    // is dominated by the exact p0 * d(G) term either way.
    result.conditional_mean = result.critical_path;
    result.mean = result.critical_path;
    result.std_error = 0.0;
  } else {
    result.conditional_mean = stats.mean();
    result.mean = p0 * result.critical_path + (1.0 - p0) * stats.mean();
    result.std_error = (1.0 - p0) * stats.standard_error();
  }
  result.ci95_half_width =
      prob::inverse_normal_cdf(0.975) * result.std_error;
  result.trials = stats.count();
  result.avg_rejections =
      stats.count() == 0
          ? 0.0
          : static_cast<double>(rejections) / static_cast<double>(stats.count());
  result.seconds = timer.seconds();
  return result;
}

}  // namespace expmk::mc
