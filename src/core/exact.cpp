#include "core/exact.hpp"

#include <algorithm>
#include <cmath>
#include <span>
#include <stdexcept>
#include <vector>

#include "graph/csr.hpp"

namespace expmk::core {

namespace {

EXPMK_NOALLOC void check_size(const graph::Dag& g, std::size_t limit) {
  if (g.task_count() > limit) {
    throw std::invalid_argument(
        "exact oracle: graph too large for enumeration (" +
        std::to_string(g.task_count()) + " > " + std::to_string(limit) + ")");
  }
  if (g.task_count() == 0) {
    throw std::invalid_argument("exact oracle: empty graph");
  }
}

}  // namespace

// The enumerations read the per-task success probabilities, so uniform
// and heterogeneous scenarios share one implementation. Each subset's
// probability is a product taken in Dag id order (the order that fixes
// its rounding), reading the position-order constants through
// csr().position(); its makespan is the CSR kernel's.

EXPMK_NOALLOC double exact_two_state(const scenario::Scenario& sc,
                                     exp::Workspace& ws) {
  check_size(sc.dag(), kMaxExactTasks);
  const exp::Workspace::Frame frame(ws);
  const graph::CsrDag& csr = sc.csr();
  const std::size_t n = csr.task_count();
  const std::span<const std::uint32_t> position = csr.position();
  const std::span<const double> a = csr.weights();
  const std::span<const double> p = sc.p_success_csr();
  const std::span<double> weights = ws.doubles(n);
  const std::span<double> finish = ws.doubles(n);
  double expectation = 0.0;
  for (std::uint64_t mask = 0; mask < (1ULL << n); ++mask) {
    double prob = 1.0;
    for (std::size_t i = 0; i < n; ++i) {
      const bool failed = (mask >> i) & 1ULL;
      const std::uint32_t v = position[i];
      prob *= failed ? (1.0 - p[v]) : p[v];
      weights[v] = failed ? 2.0 * a[v] : a[v];
    }
    if (prob == 0.0) continue;
    expectation += prob * graph::critical_path_length(csr, weights, finish);
  }
  return expectation;
}

prob::DiscreteDistribution exact_two_state_distribution(
    const scenario::Scenario& sc) {
  check_size(sc.dag(), kMaxExactTasks);
  const graph::CsrDag& csr = sc.csr();
  const std::size_t n = csr.task_count();
  const std::span<const std::uint32_t> position = csr.position();
  const std::span<const double> a = csr.weights();
  const std::span<const double> p = sc.p_success_csr();
  std::vector<double> weights(n);
  std::vector<double> finish(n);
  std::vector<prob::Atom> atoms;
  atoms.reserve(std::size_t{1} << n);
  for (std::uint64_t mask = 0; mask < (1ULL << n); ++mask) {
    double prob = 1.0;
    for (std::size_t i = 0; i < n; ++i) {
      const bool failed = (mask >> i) & 1ULL;
      const std::uint32_t v = position[i];
      prob *= failed ? (1.0 - p[v]) : p[v];
      weights[v] = failed ? 2.0 * a[v] : a[v];
    }
    if (prob == 0.0) continue;
    atoms.push_back({graph::critical_path_length(csr, weights, finish), prob});
  }
  return prob::DiscreteDistribution::from_atoms(std::move(atoms));
}

EXPMK_NOALLOC double exact_geometric(const scenario::Scenario& sc,
                                     int max_executions,
                                     exp::Workspace& ws) {
  if (max_executions < 1) {
    throw std::invalid_argument("exact_geometric: max_executions >= 1");
  }
  const exp::Workspace::Frame frame(ws);
  const graph::Dag& g = sc.dag();
  const std::size_t n = g.task_count();
  // states^n enumerations: keep the total under ~2^24.
  double combos = 1.0;
  for (std::size_t i = 0; i < n; ++i) {
    combos *= max_executions;
    if (combos > 2e7) {
      throw std::invalid_argument(
          "exact_geometric: state space too large for enumeration");
    }
  }
  check_size(g, 64);
  const graph::CsrDag& csr = sc.csr();
  const std::span<const std::uint32_t> position = csr.position();
  const std::span<const double> a = csr.weights();
  const std::span<const double> p = sc.p_success_csr();

  // Per-task state probabilities, flattened row-major [task id][state]:
  // P(executions = e) = p (1-p)^{e-1} for e < max, remaining tail mass on
  // e = max (truncated geometric).
  const auto states = static_cast<std::size_t>(max_executions);
  const std::span<double> state_prob = ws.doubles(n * states);
  for (std::size_t i = 0; i < n; ++i) {
    double tail = 1.0;
    for (int e = 1; e < max_executions; ++e) {
      const double pe = tail * p[position[i]];
      state_prob[i * states + static_cast<std::size_t>(e - 1)] = pe;
      tail -= pe;
    }
    state_prob[i * states + states - 1] = tail;
  }

  const std::span<int> state = ws.ints(n);  // executions - 1, by task id
  std::fill(state.begin(), state.end(), 0);
  const std::span<double> weights = ws.doubles(n);
  const std::span<double> finish = ws.doubles(n);
  double expectation = 0.0;
  for (;;) {
    double prob = 1.0;
    for (std::size_t i = 0; i < n; ++i) {
      prob *= state_prob[i * states + static_cast<std::size_t>(state[i])];
      const std::uint32_t v = position[i];
      weights[v] = a[v] * static_cast<double>(state[i] + 1);
    }
    if (prob > 0.0) {
      expectation += prob * graph::critical_path_length(csr, weights, finish);
    }
    // Odometer increment.
    std::size_t pos = 0;
    while (pos < n) {
      if (++state[pos] < max_executions) break;
      state[pos] = 0;
      ++pos;
    }
    if (pos == n) break;
  }
  return expectation;
}

}  // namespace expmk::core
