#include "core/dvfs.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/first_order.hpp"
#include "scenario/scenario.hpp"

namespace expmk::core {

double DvfsModel::lambda(double s) const {
  if (!(smax > smin)) {
    throw std::invalid_argument("DvfsModel: need smin < smax");
  }
  // Tolerate float accumulation from speed-sweep loops (1 ulp-ish), but
  // reject genuinely out-of-range speeds.
  const double slack = 1e-9 * (smax - smin);
  if (s < smin - slack || s > smax + slack) {
    throw std::invalid_argument("DvfsModel: speed outside [smin, smax]");
  }
  s = std::clamp(s, smin, smax);
  if (lambda0 < 0.0 || sensitivity < 0.0) {
    throw std::invalid_argument("DvfsModel: negative lambda0/sensitivity");
  }
  return lambda0 * std::pow(10.0, sensitivity * (smax - s) / (smax - smin));
}

std::vector<DvfsPoint> dvfs_sweep(const graph::Dag& g, const DvfsModel& model,
                                  const std::vector<double>& speeds) {
  if (speeds.empty()) {
    throw std::invalid_argument("dvfs_sweep: no speeds given");
  }
  std::vector<DvfsPoint> out;
  out.reserve(speeds.size());

  // Scaled copy reused across speeds.
  graph::Dag scaled = g;
  exp::Workspace ws;

  for (const double s : speeds) {
    const double lam = model.lambda(s);
    for (graph::TaskId i = 0; i < g.task_count(); ++i) {
      scaled.set_weight(i, g.weight(i) / s);
    }
    const auto fo = first_order(
        scenario::Scenario::compile(scaled,
                                    scenario::FailureSpec::uniform(lam)),
        ws);

    DvfsPoint p;
    p.speed = s;
    p.lambda = lam;
    p.failure_free_makespan = fo.critical_path;
    p.expected_makespan = fo.expected_makespan();

    // Dynamic energy = power * time with power ~ s^3 and time the
    // *expected* total busy time at speed s (re-executed work pays again):
    // E(s) ~ s^3 * sum_i E[duration_i at speed s]  (= s^2 per unit work).
    // Normalized so full speed = 1.
    const FailureModel fm{lam};
    double busy = 0.0;
    for (graph::TaskId i = 0; i < g.task_count(); ++i) {
      busy += fm.expected_duration(g.weight(i) / s, RetryModel::TwoState);
    }
    const double ratio = s / model.smax;
    const double energy = ratio * ratio * ratio * busy;
    const FailureModel full{model.lambda0};
    double full_busy = 0.0;
    for (graph::TaskId i = 0; i < g.task_count(); ++i) {
      full_busy += full.expected_duration(g.weight(i) / model.smax,
                                          RetryModel::TwoState);
    }
    p.relative_energy = energy / full_busy;
    out.push_back(p);
  }
  return out;
}

double best_speed_for_makespan(const graph::Dag& g, const DvfsModel& model,
                               const std::vector<double>& speeds) {
  const auto sweep = dvfs_sweep(g, model, speeds);
  double best_speed = sweep.front().speed;
  double best = sweep.front().expected_makespan;
  for (const DvfsPoint& p : sweep) {
    if (p.expected_makespan < best) {
      best = p.expected_makespan;
      best_speed = p.speed;
    }
  }
  return best_speed;
}

}  // namespace expmk::core
