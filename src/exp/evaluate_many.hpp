// exp/evaluate_many.hpp
//
// The batch front door for throughput: evaluate ONE compiled scenario
// against a whole batch of estimate requests at once, fanned out through
// util::for_each_chunk (the process-wide pool, the calling thread
// included) with one pooled Workspace per participating thread. The
// serving daemon does not batch: its executor (serve/executor.hpp)
// answers each request as soon as that request is evaluated.
//
// This is the first API in the library where "heavy traffic" is a
// first-class input shape rather than a sweep grid: a serving deployment
// holds a compiled Scenario per live DAG and receives streams of requests
// ("fo now", "mc with 50k trials", "bounds for the SLA check") that it
// wants answered with batch throughput, not per-call latency. The
// scenario is shared read-only by every worker (Scenario's documented
// thread-safety), the analytic kernels lease their scratch from the
// worker's thread-local workspace (zero steady-state allocations), and
// every stochastic request gets a deterministic per-request seed.
//
// Determinism contract (matches the sweep runner's): request i's
// evaluator receives seed derive_seed(requests[i].options.seed, i) — a
// pure function of the request, never of thread scheduling — and results
// are written into a pre-sized, index-addressed vector. The returned
// vector is therefore IDENTICAL (bitwise, including MC means) for any
// `threads` value; tests/test_evaluate_many.cpp pins threads {1, 2, 7}.

#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "exp/evaluator.hpp"
#include "exp/plan.hpp"
#include "scenario/scenario.hpp"

namespace expmk::exp {

/// One estimate request against the shared scenario.
struct EvalRequest {
  /// Registry method name (EvaluatorRegistry::builtin() catalogue).
  /// Ignored (may be empty) when `budget` is set — the planner picks.
  std::string method;
  /// PLANNED MODE: when either budget field is positive the request does
  /// not name a method — the query planner (exp/plan.hpp) selects and
  /// sizes one per request. The batch shares one EWMA-DISABLED planner,
  /// so every planned decision is a pure function of the request and the
  /// committed cost model, preserving the bitwise thread-count-
  /// independence contract. The chosen method is recorded on the
  /// result's note ("planned: <method>").
  PlanBudget budget{};
  /// Per-request knobs. `options.seed` is the request's seed STREAM BASE:
  /// the evaluator actually receives derive_seed(options.seed, index), so
  /// duplicate requests in one batch draw decorrelated (but reproducible)
  /// MC streams. `options.threads` is forced to 1 — batch parallelism
  /// comes from the request fan-out, not from nested engine threads.
  EvalOptions options{};
};

/// Evaluates every request against `sc` on `threads` workers (0 =
/// hardware concurrency). Results are index-aligned with `requests` and
/// bitwise independent of the thread count. Throws std::invalid_argument
/// on an unknown method name (resolved upfront — a batch fails loudly
/// before any cell runs, like a sweep).
[[nodiscard]] std::vector<EvalResult> evaluate_many(
    const scenario::Scenario& sc, std::span<const EvalRequest> requests,
    std::size_t threads = 0,
    const EvaluatorRegistry& registry = EvaluatorRegistry::builtin());

}  // namespace expmk::exp
