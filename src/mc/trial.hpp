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
// Hot-path layout (see DESIGN.md). The constants live in the compiled
// scenario, in CSR position order:
//   q_fail      = 1 - e^{-lambda_i a_i} (fast-path threshold)
//   inv_log_q   = 1 / log1p(-p_success) (slow-path geometric inversion)
// so the geometric sampler pays ZERO transcendental calls on the (common)
// no-failure path and exactly one log() when a failure did occur, instead
// of the naive two logs per task.
//
// Two entry points read them. The MC engine runs the trial-lane kernel
// (run_trial_lanes): eight consecutive trials per pass, their draws
// produced trial-major by prob::Philox4x32::fill_lanes, sampled by integer
// threshold compares, and swept over a vertex-major lane matrix so the
// per-lane max/add loops vectorize. sample_durations draws one trial's
// durations for the consumers that need them (cmc, core::criticality,
// sched::fault_sim); a makespan of sampled durations is
// graph::critical_path_length over the scenario's CSR.
//
// Both take the compiled scenario::Scenario directly and borrow its
// arrays; nothing is copied or precomputed per call.

#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>

#include "prob/rng.hpp"
#include "scenario/scenario.hpp"
#include "util/contracts.hpp"

namespace expmk::mc {

/// Executions cap in Geometric mode (guards pathological lambda; the
/// truncation probability is (1-p)^{cap}, i.e. astronomically small for
/// any sane configuration).
inline constexpr int kMaxExecutions = 64;

/// Samples one trial's task durations under the scenario's retry model:
/// one draw of `rng` per task, in CSR position order, and
/// durations_pos[v] = weight of the task at position v times its
/// executions. Returns how many tasks failed at least once. Allocation
/// free; throws std::invalid_argument unless durations_pos.size() ==
/// task_count().
EXPMK_NOALLOC std::size_t sample_durations(const scenario::Scenario& sc,
                                           prob::McRng& rng,
                                           std::span<double> durations_pos);

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
/// control statistic — BIT-identical to sample_durations with that stream
/// followed by graph::critical_path_length (tests/test_csr.cpp pins it
/// lane by lane against a reference loop).
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
    const scenario::Scenario& sc, std::uint64_t seed, std::uint64_t t0,
    std::span<double> finish);

/// Exact E[Z] of the control variate under the scenario's retry model.
[[nodiscard]] double control_variate_mean(const scenario::Scenario& sc);

}  // namespace expmk::mc
