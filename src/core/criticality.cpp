#include "core/criticality.hpp"

#include <algorithm>
#include <cmath>

#include "graph/csr.hpp"
#include "mc/trial.hpp"
#include "prob/rng.hpp"

namespace expmk::core {

std::vector<double> slacks(const graph::Dag& g) {
  const graph::CsrDag csr(g);
  const std::size_t n = csr.task_count();
  std::vector<double> top(n);
  std::vector<double> bottom(n);
  const double d = graph::compute_levels(csr, csr.weights(), top, bottom);
  std::vector<double> out(n);
  for (graph::TaskId i = 0; i < n; ++i) {
    const std::uint32_t v = csr.position()[i];
    out[i] = d - (top[v] + bottom[v]);
  }
  return out;
}

std::vector<double> criticality_probabilities(
    const scenario::Scenario& sc, const CriticalityConfig& config,
    exp::Workspace& ws) {
  const exp::Workspace::Frame frame(ws);
  const graph::CsrDag& csr = sc.csr();
  const std::size_t n = csr.task_count();
  const std::span<const graph::TaskId> order = csr.order();
  const std::span<std::uint64_t> hits = ws.u64(n);
  std::fill(hits.begin(), hits.end(), std::uint64_t{0});
  const std::span<double> dur_pos = ws.doubles(n);  // position order
  const std::span<double> top = ws.doubles(n);
  const std::span<double> bottom = ws.doubles(n);

  for (std::uint64_t t = 0; t < config.trials; ++t) {
    prob::McRng rng(config.seed, t);
    // Durations in position order; the levels give the makespan and
    // every task with zero slack this trial.
    mc::sample_durations(sc, rng, dur_pos);
    const double d = graph::compute_levels(csr, dur_pos, top, bottom);
    for (std::uint32_t pos = 0; pos < n; ++pos) {
      const double through = top[pos] + bottom[pos];
      if (through >= d * (1.0 - 1e-12)) ++hits[order[pos]];
    }
  }

  std::vector<double> out(n);
  const double total = static_cast<double>(config.trials);
  for (graph::TaskId i = 0; i < n; ++i) {
    out[i] = static_cast<double>(hits[i]) / total;
  }
  return out;
}

}  // namespace expmk::core
