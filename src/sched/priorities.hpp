// sched/priorities.hpp
//
// Task priority vectors for list scheduling. The paper's motivation: CP
// scheduling ranks tasks by bottom level; under silent errors the bottom
// level should be the *expected* one — which is exactly what the
// first-order machinery provides (core/bottom_levels.hpp).

#pragma once

#include <vector>

#include "scenario/scenario.hpp"

namespace expmk::sched {

/// Available priority schemes.
enum class PriorityKind {
  /// Classical CP-scheduling: failure-free bottom level.
  BottomLevel,
  /// Failure-aware CP: first-order expected bottom level (the paper's
  /// proposed use of its approximation).
  FailureAwareBottomLevel,
};

/// Computes the priority of every task of the scenario's DAG (higher =
/// schedule earlier). BottomLevel reads only the weights; the
/// failure-aware kind reads the scenario's rates too.
[[nodiscard]] std::vector<double> priorities(const scenario::Scenario& sc,
                                             PriorityKind kind);

}  // namespace expmk::sched
