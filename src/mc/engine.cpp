#include "mc/engine.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "exp/workspace.hpp"
#include "prob/statistics.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace expmk::mc {

namespace {

/// Accumulators of one chunk's trials.
struct ChunkAccum {
  prob::RunningStats makespan;
  // Sums for the control-variate regression: Z, Z^2, L*Z.
  double sum_z = 0.0;
  double sum_zz = 0.0;
  double sum_lz = 0.0;
  std::vector<double> samples;
};

/// Fewest trials a work unit is given when there are several: eight lane
/// batches, so the lanes a unit's last batch discards stay a small share.
constexpr std::uint64_t kMinUnitTrials = 8 * kTrialLanes;

/// Work units: contiguous runs of chunks, one per task handed to the
/// pool. One unit (run inline) for one worker; otherwise up to four per
/// worker for load balance, never fewer than kMinUnitTrials trials each.
std::size_t work_units(std::size_t workers, std::size_t chunks,
                       std::uint64_t trials) {
  if (workers <= 1) return 1;
  const std::uint64_t by_trials =
      std::max<std::uint64_t>(1, trials / kMinUnitTrials);
  return static_cast<std::size_t>(
      std::min<std::uint64_t>({chunks, 4 * workers, by_trials}));
}

}  // namespace

McResult run_monte_carlo(const scenario::Scenario& sc,
                         const McConfig& config) {
  // A zero trial count is a misconfiguration (an estimate from nothing),
  // not a request to round up: fail loudly instead of silently clamping.
  if (config.trials == 0) {
    throw std::invalid_argument("run_monte_carlo: trials must be >= 1");
  }
  const util::Timer timer;
  const std::size_t n = sc.task_count();

  const std::size_t workers = util::resolve_threads(config.threads);
  const std::uint64_t trials = config.trials;
  const std::size_t chunks = std::min<std::uint64_t>(kEngineChunks, trials);
  const auto chunk_begin = [&](std::size_t c) { return trials * c / chunks; };
  const std::size_t units = work_units(workers, chunks, trials);

  std::vector<ChunkAccum> accums(chunks);
  util::for_each_chunk(workers, units, [&](std::size_t u) {
    std::size_t c = chunks * u / units;
    const std::size_t c_stop = chunks * (u + 1) / units;
    const std::uint64_t begin = chunk_begin(c);
    const std::uint64_t end = chunk_begin(c_stop);
    if (config.capture_samples) {
      for (std::size_t k = c; k < c_stop; ++k) {
        accums[k].samples.reserve(chunk_begin(k + 1) - chunk_begin(k));
      }
    }
    // Per-unit scratch, leased from this thread's pooled workspace: the
    // lane kernel allocates nothing per batch, and a warm pool nothing
    // per call.
    exp::Workspace& ws = exp::Workspace::local();
    const exp::Workspace::Frame frame(ws);
    const std::span<double> finish = ws.doubles(n * kTrialLanes);
    std::uint64_t chunk_end = chunk_begin(c + 1);
    for (std::uint64_t t0 = begin; t0 < end; t0 += kTrialLanes) {
      const LaneObservations obs =
          run_trial_lanes(sc, config.seed, t0, finish);
      // A batch may straddle chunk boundaries: each trial goes to its own
      // chunk's accumulator, in trial order. Lanes past `end` belong to
      // the next unit and are discarded.
      const std::uint64_t lanes =
          std::min<std::uint64_t>(kTrialLanes, end - t0);
      for (std::size_t l = 0; l < lanes; ++l) {
        while (t0 + l >= chunk_end) chunk_end = chunk_begin(++c + 1);
        ChunkAccum& acc = accums[c];
        const double makespan = obs.makespan[l];
        const double control = obs.control[l];
        acc.makespan.push(makespan);
        acc.sum_z += control;
        acc.sum_zz += control * control;
        acc.sum_lz += makespan * control;
        if (config.capture_samples) acc.samples.push_back(makespan);
      }
    }
  });

  prob::RunningStats stats;
  double sum_z = 0.0, sum_zz = 0.0, sum_lz = 0.0;
  std::vector<double> samples;
  for (const ChunkAccum& acc : accums) {
    stats.merge(acc.makespan);
    sum_z += acc.sum_z;
    sum_zz += acc.sum_zz;
    sum_lz += acc.sum_lz;
    if (config.capture_samples) {
      samples.insert(samples.end(), acc.samples.begin(), acc.samples.end());
    }
  }

  McResult result;
  result.trials = stats.count();
  result.plain_mean = stats.mean();
  result.min = stats.min();
  result.max = stats.max();

  if (!config.control_variate) {
    result.mean = stats.mean();
    result.variance = stats.variance();
    result.std_error = stats.standard_error();
  } else {
    // beta = Cov(L, Z) / Var(Z); estimator L - beta (Z - E[Z]).
    const double n = static_cast<double>(stats.count());
    const double mean_z = sum_z / n;
    const double var_z = std::max(0.0, sum_zz / n - mean_z * mean_z);
    const double cov_lz = sum_lz / n - stats.mean() * mean_z;
    const double beta = var_z > 0.0 ? cov_lz / var_z : 0.0;
    const double ez = control_variate_mean(sc);
    result.mean = stats.mean() - beta * (mean_z - ez);
    // Var of the adjusted estimator: Var(L) - Cov^2/Var(Z) (asymptotic).
    const double var_plain = stats.variance();
    const double var_cv =
        std::max(0.0, var_plain - (var_z > 0.0 ? cov_lz * cov_lz / var_z : 0.0) *
                                      n / std::max(1.0, n - 1.0));
    result.variance = var_cv;
    result.std_error = std::sqrt(var_cv / n);
    result.variance_reduction =
        var_cv > 0.0 ? var_plain / var_cv
                     : std::numeric_limits<double>::infinity();
  }

  const double z95 = prob::inverse_normal_cdf(0.975);
  const double z99 = prob::inverse_normal_cdf(0.995);
  result.ci95_half_width = z95 * result.std_error;
  result.ci99_half_width = z99 * result.std_error;
  result.samples = std::move(samples);
  result.seconds = timer.seconds();
  return result;
}

}  // namespace expmk::mc
