// bench/bench_common.hpp
//
// Shared plumbing for the bench binaries: strict positional arguments,
// the JSON emitter, and the paper's estimators-vs-Monte-Carlo protocol
// for the figure/table reproductions (signed normalized difference with
// Monte Carlo, the format the paper reports).

#pragma once

#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "core/failure_model.hpp"
#include "exp/sweep.hpp"
#include "prob/statistics.hpp"
#include "util/cli.hpp"
#include "util/json_writer.hpp"

namespace expmk::bench {

using JsonWriter = util::JsonWriter;

/// Strict positional arguments for the plain-main benches: the whole
/// token must parse (no trailing junk) and a count must be >= 1. Anything
/// else prints `usage` and exits 2 instead of running zero reps and
/// writing a bogus JSON.
[[noreturn]] inline void usage_exit(const char* usage, const char* bad) {
  std::fprintf(stderr, "invalid argument '%s'\nusage: %s\n", bad, usage);
  std::exit(2);
}

inline std::uint64_t count_arg(int argc, char** argv, int i,
                               std::uint64_t fallback, const char* usage) {
  if (i >= argc) return fallback;
  const char* s = argv[i];
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (s[0] == '-' || end == s || *end != '\0' || errno == ERANGE || v == 0) {
    usage_exit(usage, s);
  }
  return v;
}

/// The paper's two-retry-model protocol on exp::SweepRunner (DESIGN.md,
/// "Evaluator registry and the sweep subsystem"): the estimators run on
/// the two-state model, the Monte-Carlo ground truth on the geometric one.
/// Both passes derive the same per-scenario seeds, so scenario `si` of one
/// pass is scenario `si` of the other.
struct PaperSweep {
  /// Scenario-major, in SweepRunner's (generator, size, pfail) order;
  /// within a scenario, the geometric pass ("mc" first), then the
  /// two-state pass. Every cell's reference is the geometric "mc".
  std::vector<exp::SweepCell> cells;
  std::size_t per_scenario = 0;

  /// `method`'s cell on scenario `si`.
  [[nodiscard]] const exp::SweepCell& at(std::size_t si,
                                         std::string_view method) const {
    for (std::size_t i = 0; i < per_scenario; ++i) {
      const exp::SweepCell& cell = cells[si * per_scenario + i];
      if (cell.method == method) return cell;
    }
    throw std::out_of_range("PaperSweep: no method '" + std::string(method) +
                            "'");
  }
};

/// Runs `grid.methods` on the two-state model and `geometric` after the
/// "mc" reference on the geometric model (grid.retry and grid.reference
/// are ignored). A grid SweepRunner rejects fails through `cli`, before
/// any cell runs.
inline PaperSweep run_paper_sweep(const util::Cli& cli, exp::SweepGrid grid,
                                  std::vector<std::string> geometric) {
  exp::SweepGrid geo = grid;
  geo.retry = core::RetryModel::Geometric;
  geo.reference = "mc";
  geo.methods = std::move(geometric);
  grid.retry = core::RetryModel::TwoState;
  grid.reference.clear();
  exp::SweepResult g, t;
  try {
    g = exp::SweepRunner().run(geo);
    t = exp::SweepRunner().run(grid);
  } catch (const std::invalid_argument& e) {
    cli.fail(e.what());
  }

  PaperSweep out;
  const std::size_t ng = geo.methods.size() + 1;
  const std::size_t nt = grid.methods.size();
  out.per_scenario = ng + nt;
  for (std::size_t si = 0; si * ng < g.cells.size(); ++si) {
    out.cells.insert(out.cells.end(), g.cells.begin() + si * ng,
                     g.cells.begin() + (si + 1) * ng);
    const double ref = g.cells[si * ng].reference_mean;
    for (std::size_t i = si * nt; i < (si + 1) * nt; ++i) {
      exp::SweepCell& cell = out.cells.emplace_back(t.cells[i]);
      cell.reference_mean = ref;
      if (cell.result.supported && std::isfinite(ref) && ref != 0.0) {
        cell.relative_error = (cell.result.mean - ref) / ref;
      }
    }
  }
  return out;
}

/// Half-width of the 95% confidence interval of a Monte-Carlo cell, with
/// the engine's own z (mc::McResult::ci95_half_width).
inline double ci95(const exp::SweepCell& mc) {
  return prob::inverse_normal_cdf(0.975) * mc.result.std_error;
}

}  // namespace expmk::bench
