// serve/shed.hpp
//
// Degrade-don't-queue admission for the serving daemon. When the request
// queue deepens or the measured response p99 crosses a threshold, the
// engine does NOT let latency grow unboundedly — it substitutes a
// cheaper method and SAYS SO in the response (method_requested /
// method_used / shed_level), so a client always knows what estimate it
// actually got. Only past a hard queue limit are requests rejected
// outright, with a typed "overloaded" error frame.
//
// Degradation is PLANNER-DRIVEN (exp/plan.hpp), not a hard-coded method
// ladder: each pressure level carries a per-request cost deadline
// (deadline_l1_us / deadline_l2_us), and a request whose method the
// calibrated cost model predicts OVER the level's deadline is replaced
// by the planner's most-accurate-method-under-that-deadline for the
// request's scenario (ties to the cheaper one; when nothing fits, the
// predicted-cheapest closed form — fo/so territory — is the floor). A
// request already predicted under the deadline passes through unchanged,
// whatever its name — so a 12-task exact stays exact under pressure
// while a 200k-task sp degrades, which the old name ladder got exactly
// backwards. mc / cmc / mc.hier trial counts are additionally capped at
// the level's mc_trials_lN. The decision is a pure function of (level,
// request, scenario features, cost-model state) — unit-testable without
// a server (tests/test_serve.cpp).
//
//   reject (hard limit): queue_depth >= queue_hard -> typed error,
//                        never an unbounded queue.

#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string_view>

#include "exp/plan.hpp"
#include "util/contracts.hpp"

namespace expmk::serve {

/// Thresholds for the degrade ladder. Levels trigger on EITHER queue
/// depth or measured p99 (the max of the two signals' levels); the hard
/// limit triggers on queue depth alone.
struct ShedConfig {
  std::size_t queue_l1 = 512;    ///< queued requests >= this -> level 1
  std::size_t queue_l2 = 2048;   ///< queued requests >= this -> level 2
  std::size_t queue_hard = 8192; ///< queued requests >= this -> reject
  double p99_l1_us = 50'000.0;   ///< measured p99 >= this -> level 1
  double p99_l2_us = 250'000.0;  ///< measured p99 >= this -> level 2
  std::uint64_t mc_trials_l1 = 20'000;  ///< mc/cmc trial cap at level 1
  std::uint64_t mc_trials_l2 = 2'000;   ///< mc/cmc trial cap at level 2
  /// Per-request predicted-cost deadlines the planner degrades against.
  double deadline_l1_us = 50'000.0;  ///< level-1 planner deadline
  double deadline_l2_us = 2'000.0;   ///< level-2 planner deadline
};

/// The outcome of admission for one request.
struct ShedDecision {
  int level = 0;                 ///< 0 = as requested, 1 / 2 = degraded
  std::string_view method;       ///< method to actually run
  std::uint64_t mc_trials = 0;   ///< trial count to actually run
  bool degraded = false;         ///< method or trial count was substituted
};

/// Pure decision functions over the config (no I/O, no clock).
class ShedPolicy {
 public:
  ShedPolicy() = default;
  explicit ShedPolicy(const ShedConfig& config) : config_(config) {}

  [[nodiscard]] const ShedConfig& config() const noexcept { return config_; }

  /// Hard-limit check: true means reject with a typed error frame.
  EXPMK_NOALLOC [[nodiscard]] bool reject(
      std::size_t queue_depth) const noexcept {
    return queue_depth >= config_.queue_hard;
  }

  /// Ladder level for the current pressure signals (0, 1 or 2).
  EXPMK_NOALLOC [[nodiscard]] int level(std::size_t queue_depth,
                                        double p99_us) const noexcept {
    int lvl = 0;
    if (queue_depth >= config_.queue_l1) lvl = 1;
    if (queue_depth >= config_.queue_l2) lvl = 2;
    if (p99_us >= config_.p99_l1_us && lvl < 1) lvl = 1;
    if (p99_us >= config_.p99_l2_us && lvl < 2) lvl = 2;
    return lvl;
  }

  /// Applies the level's cost deadline to one request: keep the
  /// requested method when `planner`'s cost model predicts it under the
  /// deadline, otherwise substitute the planner's most accurate method
  /// predicted to fit. `atoms` / `mc_trials` are the request's knob
  /// values (0 = method default), used as cost hints; mc-family trial
  /// counts are additionally capped at the level's mc_trials_lN.
  /// `method` must outlive the returned decision (the view aliases
  /// either the argument or the planner's static name table).
  EXPMK_NOALLOC [[nodiscard]] ShedDecision degrade(
      int lvl, std::string_view method, std::uint64_t mc_trials,
      std::size_t atoms, const exp::CostFeatures& features,
      const exp::Planner& planner) const noexcept {
    ShedDecision d;
    d.level = lvl;
    d.method = method;
    d.mc_trials = mc_trials;
    if (lvl <= 0) return d;
    const double deadline =
        lvl == 1 ? config_.deadline_l1_us : config_.deadline_l2_us;
    const std::uint64_t trial_cap =
        lvl == 1 ? config_.mc_trials_l1 : config_.mc_trials_l2;

    const exp::PlanMethod m = exp::plan_method_from_name(method);
    if (m == exp::PlanMethod::kCount) return d;  // outside the catalogue

    // The level's mc trial cap applies to the REQUESTED method first: a
    // capped-but-kept mc request is still a degradation and says so.
    const bool mc_like = m == exp::PlanMethod::kMc ||
                         m == exp::PlanMethod::kCmc ||
                         m == exp::PlanMethod::kMcHier;
    if (mc_like && d.mc_trials > trial_cap) {
      d.mc_trials = trial_cap;
      d.degraded = true;
    }

    if (planner.model().predict_us(m, features, atoms, d.mc_trials) <=
        deadline) {
      return d;  // predicted to fit — keep it, whatever its name
    }

    // Over the deadline: the planner's most accurate method predicted
    // under it; when nothing fits, select() falls back to its
    // predicted-cheapest capability-feasible pick.
    exp::PlanBudget budget;
    budget.deadline_us = deadline;
    const exp::PlanChoice choice = planner.select(features, budget);
    d.method = exp::plan_method_name(choice.method);
    d.mc_trials = std::min<std::uint64_t>(
        choice.mc_trials > 0 ? choice.mc_trials : mc_trials, trial_cap);
    d.degraded = true;
    return d;
  }

 private:
  ShedConfig config_;
};

/// Fixed-size ring of recent response latencies feeding the p99 signal.
/// Thread-safe; the ring never allocates after construction.
class LatencyWindow {
 public:
  static constexpr std::size_t kCapacity = 512;

  /// Records one response latency in microseconds.
  void record(double us) noexcept {
    const std::lock_guard<std::mutex> lock(m_);
    ring_[head_] = us;
    head_ = (head_ + 1) % kCapacity;
    if (count_ < kCapacity) ++count_;
  }

  /// Number of samples currently held (saturates at kCapacity).
  [[nodiscard]] std::size_t count() const noexcept {
    const std::lock_guard<std::mutex> lock(m_);
    return count_;
  }

  /// The q-quantile (q in [0, 1]) of the held samples at nearest rank;
  /// 0 when empty. Selects on a stack copy of the ring — O(n) expected
  /// work, no allocation.
  [[nodiscard]] double quantile(double q) const noexcept;

 private:
  mutable std::mutex m_;
  double ring_[kCapacity] = {};
  std::size_t head_ = 0;
  std::size_t count_ = 0;
};

}  // namespace expmk::serve
