// mc/trial.hpp
//
// Single Monte-Carlo trial: sample each task's duration under the silent-
// error model, then evaluate the DAG's longest path. The paper's ground
// truth (Section V-C) samples a time-to-next-failure ~ Exp(lambda) per
// attempt; an attempt fails iff that time is shorter than the task length,
// which is exactly a Bernoulli(1 - e^{-lambda a_i}) draw — so sampling the
// failure indicator directly is equivalent and faster. Per-task rates
// (heterogeneous scenarios) change nothing here: the kernel reads per-task
// constant arrays either way.
//
// Hot-path layout (see DESIGN.md). The constants live in CSR position
// order:
//   q_fail      = 1 - e^{-lambda_i a_i} (fast-path threshold)
//   inv_log_q   = 1 / log1p(-p_success) (slow-path geometric inversion)
// so the geometric sampler pays ZERO transcendental calls on the (common)
// no-failure path and exactly one log() when a failure did occur, instead
// of the naive two logs per task. The CSR kernels fuse sampling with the
// longest-path sweep — one forward pass, no allocation, caller scratch.
//
// Two kernel shapes share that sweep. The MC engine runs the trial-lane
// kernel (run_trial_lanes): eight consecutive trials per pass, their
// draws produced trial-major by prob::Philox4x32::fill_lanes, sampled by
// integer threshold compares, and swept over a vertex-major lane matrix
// so the per-lane max/add loops vectorize. The one-trial kernels
// (run_trial_csr and its scatter/durations forms) serve the consumers
// that need per-task durations: core::criticality, sched::fault_sim.
//
// TrialContext is a VIEW: built from a compiled scenario::Scenario it
// borrows the CSR and the constant arrays and performs no
// per-construction preprocessing at all.

#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "core/failure_model.hpp"
#include "graph/csr.hpp"
#include "graph/dag.hpp"
#include "prob/rng.hpp"
#include "scenario/scenario.hpp"
#include "util/contracts.hpp"

namespace expmk::mc {

/// Per-task sampling constants plus the CSR view, shared across trials.
/// Copyable and cheap to copy: all heavy state is borrowed from a
/// scenario::Scenario, which the context must not outlive.
struct TrialContext {
  /// Zero-preprocessing view of a compiled scenario. The context (and
  /// every kernel call made with it) must not outlive `sc`.
  explicit TrialContext(const scenario::Scenario& sc);

  [[nodiscard]] const graph::Dag& dag() const noexcept { return *dag_; }
  [[nodiscard]] const graph::CsrDag& csr() const noexcept { return *csr_; }
  /// The CSR position order as a Dag topological order (== csr().order()).
  [[nodiscard]] std::span<const graph::TaskId> topo() const noexcept {
    return csr_->order();
  }
  /// e^{-lambda_i a_i} in Dag id order.
  [[nodiscard]] std::span<const double> p_success() const noexcept {
    return p_success_;
  }
  // Sampling constants in CSR *position* order (weights live in csr()):
  [[nodiscard]] std::span<const double> p_success_csr() const noexcept {
    return p_success_csr_;
  }
  [[nodiscard]] std::span<const double> q_fail_csr() const noexcept {
    return q_fail_csr_;
  }
  [[nodiscard]] std::span<const double> inv_log_q_csr() const noexcept {
    return inv_log_q_csr_;
  }
  [[nodiscard]] core::RetryModel retry() const noexcept { return retry_; }

  /// Executions cap in Geometric mode (guards pathological lambda; the
  /// truncation probability is (1-p)^{cap}, i.e. astronomically small for
  /// any sane configuration). Mutable: tests/benches tighten it.
  int max_executions = 64;

 private:
  const graph::Dag* dag_ = nullptr;
  const graph::CsrDag* csr_ = nullptr;
  std::span<const double> p_success_;
  std::span<const double> p_success_csr_;
  std::span<const double> q_fail_csr_;
  std::span<const double> inv_log_q_csr_;
  core::RetryModel retry_ = core::RetryModel::Geometric;
};

/// Allocation-free CSR trial kernel: samples every task (one RNG draw per
/// task, in CSR position order) and evaluates the makespan in the same
/// forward sweep. `finish` is caller scratch of size task_count(),
/// overwritten. Deterministic given `rng` state; bit-identical to the
/// reference scalar loop (sample durations, then Dag longest path) —
/// tests/test_csr.cpp enforces this.
EXPMK_NOALLOC [[nodiscard]] double run_trial_csr(const TrialContext& ctx,
                                   prob::McRng& rng,
                                   std::span<double> finish);

/// Trial-lane kernel width: the engine sweeps this many consecutive
/// trials through one CSR pass (a compile-time constant, not a knob).
inline constexpr std::size_t kTrialLanes = prob::McRng::kLanes;

/// Per-lane observations of one lane batch: lane l is trial t0 + l.
/// `control` is the control-variate statistic
/// Z = sum_i a_i * (executions_i - 1), whose exact mean is known (see
/// control_variate_mean); the engine uses it for variance reduction.
struct LaneObservations {
  std::array<double, kTrialLanes> makespan{};
  std::array<double, kTrialLanes> control{};
};

/// Allocation-free trial-lane kernel, the Monte-Carlo engine's one trial
/// path: runs trials t0 .. t0 + kTrialLanes - 1 of `seed` in a single
/// forward CSR sweep. Lane l samples task v with draw v of the stream
/// prob::McRng(seed, t0 + l) and returns that trial's makespan and
/// control statistic — BIT-identical to a scalar run_trial_csr with that
/// stream (tests/test_csr.cpp pins it lane by lane).
///
/// `finish` is caller scratch, overwritten: the vertex-major lane matrix
/// finish[v * kTrialLanes + l], of size task_count() * kTrialLanes. The
/// draws come 32 tasks at a time from prob::Philox4x32::fill_lanes into
/// a 2 KiB tile on the stack, so they stay in L1 at any task count.
/// Sampling compares integers: with m = draw >> 11,
///   TwoState:  u = m 2^-53 < p_success      <=>  m < ceil(p_success 2^53)
///   Geometric: u = (m+1) 2^-53 <= q_fail    <=>  m < floor(q_fail 2^53)
/// (exact for every double in [0,1]; proof in DESIGN.md "The trial
/// kernel"); only a failing geometric lane converts m to a double.
EXPMK_NOALLOC [[nodiscard]] LaneObservations run_trial_lanes(
    const TrialContext& ctx, std::uint64_t seed, std::uint64_t t0,
    std::span<double> finish);

/// As run_trial_csr, additionally scattering the sampled per-task
/// durations into `durations` in Dag id order — the all-spans form of
/// run_trial below, for workspace-based consumers (core::criticality,
/// sched::fault_sim) that lease BOTH buffers instead of owning a vector.
/// Both spans must have size task_count(); bit-identical to run_trial.
EXPMK_NOALLOC double run_trial_scatter_csr(const TrialContext& ctx, prob::McRng& rng,
                             std::span<double> finish,
                             std::span<double> durations);

/// As run_trial_scatter_csr but writes the sampled durations in CSR
/// POSITION order (durations_pos[v] = duration of the task at position
/// v) — the layout the CSR level/longest-path kernels consume directly,
/// saving consumers like core::criticality a per-trial permutation.
/// Identical RNG stream and makespans.
EXPMK_NOALLOC double run_trial_durations_csr(const TrialContext& ctx,
                               prob::McRng& rng,
                               std::span<double> finish,
                               std::span<double> durations_pos);

/// Dag-facing adapter over the CSR kernel: additionally scatters the
/// sampled per-task durations into `durations` in Dag id order (for
/// consumers that re-schedule with them, e.g. sched::fault_sim).
/// Precondition: durations.size() == task_count() — size the buffer once
/// outside the trial loop; this function throws std::invalid_argument
/// instead of resizing per call.
double run_trial(const TrialContext& ctx, prob::McRng& rng,
                 std::vector<double>& durations);

/// Exact E[Z] of the control variate under the context's retry model.
[[nodiscard]] double control_variate_mean(const TrialContext& ctx);

}  // namespace expmk::mc
