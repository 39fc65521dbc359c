// exp/sweep.hpp
//
// The experiment-sweep subsystem: expands a declarative grid
//
//     generators x sizes x pfail values x retry model x methods
//
// into cells, runs one chunk per scenario through util::for_each_chunk
// (the process-wide pool, the calling thread included), computes each
// method's relative error against a designated reference method, and emits
// machine-readable JSON and CSV artifacts — the harness behind the paper's
// accuracy/runtime tables (Section V) and the expmk_sweep CLI.
//
// Determinism contract (the sweep-layer extension of the MC engine's
// fixed-chunk contract, DESIGN.md): every scenario derives its seeds from
// (base_seed, generator index, size index, pfail index) — never from
// thread scheduling — and results are written into a pre-sized, index-
// addressed vector. The JSON artifact (which excludes wall-clock timings;
// those live in the CSV) is therefore BYTE-IDENTICAL for any thread
// count. tests/test_sweep.cpp pins this for threads in {1, 2, 7}.

#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "core/failure_model.hpp"
#include "exp/evaluator.hpp"
#include "graph/dag.hpp"

namespace expmk::exp {

/// Declarative sweep grid. Generator names: lu | qr | cholesky | layered |
/// erdos | sp | chain | forkjoin (see SweepRunner::build_dag for the size
/// parameter's meaning per family).
struct SweepGrid {
  std::vector<std::string> generators;
  std::vector<int> sizes;
  std::vector<double> pfails;
  core::RetryModel retry = core::RetryModel::TwoState;
  /// Evaluator names (EvaluatorRegistry::builtin() catalogue).
  std::vector<std::string> methods;
  /// Reference method for relative errors; empty = no reference. The
  /// reference runs once per scenario and appears in the output as its
  /// own cells (relative_error == 0).
  std::string reference = "mc";
  std::uint64_t base_seed = 2016;
  /// Per-evaluator knobs; `seed` is overwritten per scenario.
  EvalOptions options;
};

/// One (scenario, method) cell of the sweep output.
struct SweepCell {
  std::string generator;
  int size = 0;
  std::size_t tasks = 0;
  std::size_t edges = 0;
  double pfail = 0.0;
  double lambda = 0.0;
  std::string method;
  EvalResult result;
  /// The reference method's mean on this scenario (NaN when no reference
  /// was configured or the reference itself was unsupported).
  double reference_mean = std::numeric_limits<double>::quiet_NaN();
  /// (mean - reference_mean) / reference_mean — the paper's signed
  /// normalized difference. NaN when either side is unavailable.
  double relative_error = std::numeric_limits<double>::quiet_NaN();
  /// The deterministic per-scenario seed the cell's evaluator received.
  std::uint64_t seed = 0;
};

/// Sweep output: cells in deterministic scenario-major, method-minor
/// order (independent of the thread count).
struct SweepResult {
  std::vector<SweepCell> cells;
  core::RetryModel retry = core::RetryModel::TwoState;
  std::string reference;
  std::uint64_t base_seed = 0;
  std::uint64_t mc_trials = 0;
  double seconds = 0.0;  ///< wall-clock for the whole sweep

  /// JSON artifact (schema "expmk-sweep-v3"; see DESIGN.md — v3 adds the
  /// certified truncation envelope mean_lo/mean_hi per cell). Timings are
  /// excluded unless `include_timing` — the default artifact is the
  /// deterministic record, byte-identical across thread counts.
  [[nodiscard]] std::string json(bool include_timing = false) const;
  /// CSV artifact: one row per cell, wall-clock seconds included.
  [[nodiscard]] std::string csv() const;
  /// Writes json() / csv() to the given paths (empty path = skip).
  void write_artifacts(const std::string& json_path,
                       const std::string& csv_path,
                       bool include_timing = false) const;
};

/// Expands and executes sweep grids against an evaluator registry.
class SweepRunner {
 public:
  explicit SweepRunner(
      const EvaluatorRegistry& registry = EvaluatorRegistry::builtin())
      : registry_(&registry) {}

  /// Runs the grid with `threads` scenario-level workers (0 = hardware
  /// concurrency; evaluator-internal parallelism is grid.options.threads).
  /// Throws std::invalid_argument on an empty grid axis, an unknown
  /// generator/method/reference name, or mc_trials == 0 — sweeps fail
  /// loudly on misconfiguration, before any cell runs.
  [[nodiscard]] SweepResult run(const SweepGrid& grid,
                                std::size_t threads = 1) const;

  /// Builds one generator DAG. size = tile count k for lu/qr/cholesky;
  /// layer count and width for layered; task count for erdos/sp/chain/
  /// forkjoin. `seed` feeds the random families only.
  [[nodiscard]] static graph::Dag build_dag(const std::string& generator,
                                            int size, std::uint64_t seed);

 private:
  const EvaluatorRegistry* registry_;
};

}  // namespace expmk::exp
