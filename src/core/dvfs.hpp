// core/dvfs.hpp
//
// The DVFS (dynamic voltage/frequency scaling) silent-error model the
// paper motivates in Section II-B: lowering the voltage/frequency both
// slows tasks down AND raises the silent-error rate exponentially
// (equation (1) of the paper, originally Zhu/Melhem/Mosse):
//
//     lambda(s) = lambda0 * 10^( d * (smax - s) / (smax - smin) )
//
// where lambda0 is the error rate at full speed smax, d > 0 the
// sensitivity, and smin the lowest speed. Running at speed s also scales
// every weight a_i to a_i / s. Combined with the first-order estimator,
// this module answers the trade-off question the paper's introduction
// raises: how much expected makespan does energy-saving DVFS really cost
// once the induced silent errors are accounted for?
//
// Energy model: the classical cubic dynamic-power law, E(s) proportional
// to s^2 per unit of work (power ~ s^3, time ~ 1/s), which is what the
// cited DVFS works assume.

#pragma once

#include <vector>

#include "core/failure_model.hpp"
#include "graph/dag.hpp"

namespace expmk::core {

/// The speed-dependent error model of the paper's equation (1).
struct DvfsModel {
  double lambda0 = 1e-5;  ///< error rate at s = smax
  double sensitivity = 3.0;  ///< the paper's d (typically 2-4)
  double smin = 0.5;
  double smax = 1.0;

  /// lambda(s); throws std::invalid_argument outside [smin, smax] or for
  /// a degenerate speed range.
  [[nodiscard]] double lambda(double s) const;
};

/// Per-point result of a speed sweep.
struct DvfsPoint {
  double speed = 0.0;
  double lambda = 0.0;
  double failure_free_makespan = 0.0;  ///< d(G)/s
  double expected_makespan = 0.0;      ///< first-order, silent errors priced in
  /// Dynamic energy relative to full speed: power ~ s^3 times the
  /// expected busy time (re-executions included), i.e. ~ s^2 per unit of
  /// work, normalized so full speed = 1.
  double relative_energy = 0.0;
};

/// Evaluates the makespan/energy trade-off of running the whole DAG at
/// each speed in `speeds` (weights are divided by s; lambda follows the
/// DVFS law): one compiled uniform-rate Scenario per speed, evaluated by
/// the first-order kernel.
[[nodiscard]] std::vector<DvfsPoint> dvfs_sweep(
    const graph::Dag& g, const DvfsModel& model,
    const std::vector<double>& speeds);

/// The speed in `speeds` minimizing the first-order expected makespan —
/// with a rate that grows as speed drops, running slower can be *worse*
/// than the time-dilation alone suggests; this finds the sweet spot.
[[nodiscard]] double best_speed_for_makespan(
    const graph::Dag& g, const DvfsModel& model,
    const std::vector<double>& speeds);

}  // namespace expmk::core
