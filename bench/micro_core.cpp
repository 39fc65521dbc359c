// bench/micro_core.cpp
//
// google-benchmark micro suite: per-operation costs of the library's hot
// paths — longest path, levels, the first/second-order estimators, MC
// trials, distribution algebra, Dodin, and the Normal family. These back
// the complexity claims in DESIGN.md (e.g. first order is O(V + E) and
// takes well under a millisecond even at k = 20).

#include <benchmark/benchmark.h>

#include <span>
#include <vector>

#include "core/bottom_levels.hpp"
#include "core/failure_model.hpp"
#include "core/first_order.hpp"
#include "core/second_order.hpp"
#include "exp/workspace.hpp"
#include "gen/cholesky.hpp"
#include "gen/lu.hpp"
#include "graph/csr.hpp"
#include "graph/reachability.hpp"
#include "graph/topological.hpp"
#include "legacy_trial.hpp"
#include "mc/engine.hpp"
#include "normal/clark_full.hpp"
#include "normal/corlca.hpp"
#include "normal/sculli.hpp"
#include "prob/dist_kernels.hpp"
#include "scenario/scenario.hpp"
#include "spgraph/dodin.hpp"

namespace {

using namespace expmk;

void BM_TopologicalOrder(benchmark::State& state) {
  const auto g = gen::lu_dag(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::topological_order(g));
  }
  state.SetLabel(std::to_string(g.task_count()) + " tasks");
}
BENCHMARK(BM_TopologicalOrder)->Arg(8)->Arg(12)->Arg(20);

void BM_CriticalPath(benchmark::State& state) {
  const auto g = gen::lu_dag(static_cast<int>(state.range(0)));
  const graph::CsrDag csr(g);
  std::vector<double> finish(csr.task_count());
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        graph::critical_path_length(csr, csr.weights(), finish));
  }
  state.SetLabel(std::to_string(g.task_count()) + " tasks");
}
BENCHMARK(BM_CriticalPath)->Arg(8)->Arg(12)->Arg(20);

void BM_FirstOrder(benchmark::State& state) {
  const auto g = gen::lu_dag(static_cast<int>(state.range(0)));
  const auto sc = scenario::Scenario::calibrated(g, 0.0001);
  exp::Workspace ws;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::first_order(sc, ws).expected_makespan());
  }
  state.SetLabel(std::to_string(g.task_count()) + " tasks");
}
BENCHMARK(BM_FirstOrder)->Arg(8)->Arg(12)->Arg(20);

void BM_SecondOrder(benchmark::State& state) {
  const auto g = gen::cholesky_dag(static_cast<int>(state.range(0)));
  const auto sc = scenario::Scenario::calibrated(g, 0.001);
  exp::Workspace ws;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::second_order(sc, ws).expected_makespan);
  }
  state.SetLabel(std::to_string(g.task_count()) + " tasks");
}
BENCHMARK(BM_SecondOrder)->Arg(4)->Arg(8)->Arg(12);

// What the `mc` estimator runs: run_monte_carlo at one thread (the
// trial-lane kernel plus the chunk accumulators), reported per trial.
void BM_McTrial(benchmark::State& state) {
  const auto g = gen::lu_dag(static_cast<int>(state.range(0)));
  const auto sc =
      scenario::Scenario::calibrated(g, 0.001, core::RetryModel::Geometric);
  mc::McConfig cfg;
  cfg.trials = 1024;
  cfg.seed = 1;
  cfg.threads = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(mc::run_monte_carlo(sc, cfg).mean);
  }
  // Seconds per trial, printed with an SI prefix (e.g. "976n").
  state.counters["per_trial"] = benchmark::Counter(
      static_cast<double>(cfg.trials),
      benchmark::Counter::kIsIterationInvariantRate |
          benchmark::Counter::kInvert);
  state.SetLabel(std::to_string(g.task_count()) + " tasks");
}
BENCHMARK(BM_McTrial)->Arg(8)->Arg(12)->Arg(20);

// Pre-CSR baseline (bench/legacy_trial.hpp): per-trial allocation,
// pointer-chasing adjacency, two logs per task, one trial per call. Kept
// so the BM_McTrial speedup stays visible in every micro run.
void BM_McTrial_Legacy(benchmark::State& state) {
  const auto g = gen::lu_dag(static_cast<int>(state.range(0)));
  const auto model = core::calibrate(g, 0.001);
  const bench::LegacyTrialContext ctx(g, model, core::RetryModel::Geometric);
  prob::McRng rng(1);
  std::vector<double> durations(g.task_count());
  for (auto _ : state) {
    benchmark::DoNotOptimize(bench::legacy_run_trial(ctx, rng, durations));
  }
  state.SetLabel(std::to_string(g.task_count()) + " tasks");
}
BENCHMARK(BM_McTrial_Legacy)->Arg(8)->Arg(12)->Arg(20);

void BM_Sculli(benchmark::State& state) {
  const auto g = gen::lu_dag(static_cast<int>(state.range(0)));
  const auto sc = scenario::Scenario::calibrated(g, 0.001);
  exp::Workspace ws;
  for (auto _ : state) {
    benchmark::DoNotOptimize(normal::sculli(sc, ws).expected_makespan());
  }
  state.SetLabel(std::to_string(g.task_count()) + " tasks");
}
BENCHMARK(BM_Sculli)->Arg(8)->Arg(12)->Arg(20);

void BM_CorLca(benchmark::State& state) {
  const auto g = gen::lu_dag(static_cast<int>(state.range(0)));
  const auto sc = scenario::Scenario::calibrated(g, 0.001);
  exp::Workspace ws;
  for (auto _ : state) {
    benchmark::DoNotOptimize(normal::corlca(sc, ws).expected_makespan());
  }
  state.SetLabel(std::to_string(g.task_count()) + " tasks");
}
BENCHMARK(BM_CorLca)->Arg(8)->Arg(12)->Arg(20);

void BM_ClarkFull(benchmark::State& state) {
  const auto g = gen::lu_dag(static_cast<int>(state.range(0)));
  const auto sc = scenario::Scenario::calibrated(g, 0.001);
  exp::Workspace ws;
  for (auto _ : state) {
    benchmark::DoNotOptimize(normal::clark_full(sc, ws).expected_makespan());
  }
  state.SetLabel(std::to_string(g.task_count()) + " tasks");
}
BENCHMARK(BM_ClarkFull)->Arg(6)->Arg(10);

void BM_Dodin(benchmark::State& state) {
  const auto g = gen::cholesky_dag(static_cast<int>(state.range(0)));
  const auto sc = scenario::Scenario::compile(g, core::calibrate(g, 0.001));
  exp::Workspace ws;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sp::dodin_two_state_flat(sc, {.max_atoms = 64}, ws).mean);
  }
  state.SetLabel(std::to_string(g.task_count()) + " tasks");
}
BENCHMARK(BM_Dodin)->Arg(4)->Arg(6);

void BM_FailureAwareBottomLevels(benchmark::State& state) {
  const auto g = gen::cholesky_dag(static_cast<int>(state.range(0)));
  const auto sc = scenario::Scenario::calibrated(g, 0.001);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::failure_aware_bottom_levels(sc));
  }
  state.SetLabel(std::to_string(g.task_count()) + " tasks");
}
BENCHMARK(BM_FailureAwareBottomLevels)->Arg(6)->Arg(10);

void BM_Reachability(benchmark::State& state) {
  const auto g = gen::lu_dag(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    const graph::Reachability r(g);
    benchmark::DoNotOptimize(r.descendant_count(0));
  }
  state.SetLabel(std::to_string(g.task_count()) + " tasks");
}
BENCHMARK(BM_Reachability)->Arg(8)->Arg(12);

/// The law of a 13-task series chain, capped at `atoms` after every
/// convolution.
std::vector<prob::Atom> capped_chain(std::size_t atoms) {
  namespace dk = prob::dist_kernels;
  std::vector<prob::Atom> d(2);
  d.resize(dk::two_state(1.0, 0.99, d));
  for (int i = 0; i < 12; ++i) {
    prob::Atom t[2];
    const std::size_t nt = dk::two_state(1.0 + 0.01 * i, 0.99, t);
    const dk::ConvolveScratch need = dk::convolve_scratch(d.size(), nt, atoms);
    std::vector<prob::Atom> out(need.out);
    std::vector<prob::Atom> scratch(need.atoms);
    std::vector<double> gaps(need.gaps);
    dk::TruncationCert cert;
    out.resize(dk::convolve(d, std::span<const prob::Atom>(t, nt), atoms, cert,
                            out, scratch, gaps));
    d = std::move(out);
  }
  return d;
}

void BM_Convolve(benchmark::State& state) {
  namespace dk = prob::dist_kernels;
  const auto atoms = static_cast<std::size_t>(state.range(0));
  const std::vector<prob::Atom> d = capped_chain(atoms);
  prob::Atom other[2];
  const std::size_t no = dk::two_state(0.5, 0.99, other);
  const dk::ConvolveScratch need = dk::convolve_scratch(d.size(), no, atoms);
  std::vector<prob::Atom> out(need.out);
  std::vector<prob::Atom> scratch(need.atoms);
  std::vector<double> gaps(need.gaps);
  for (auto _ : state) {
    dk::TruncationCert cert;
    const std::size_t m = dk::convolve(
        d, std::span<const prob::Atom>(other, no), atoms, cert, out, scratch,
        gaps);
    benchmark::DoNotOptimize(out.data());
    benchmark::DoNotOptimize(m);
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_Convolve)->Arg(64)->Arg(256);

void BM_MaxOf(benchmark::State& state) {
  namespace dk = prob::dist_kernels;
  const auto atoms = static_cast<std::size_t>(state.range(0));
  const std::vector<prob::Atom> d = capped_chain(atoms);
  std::vector<prob::Atom> out(2 * d.size());
  std::vector<double> gaps(out.size());
  for (auto _ : state) {
    std::size_t m = dk::max_of(d, d, out);
    if (m > atoms) {
      dk::TruncationCert cert;
      m = dk::truncate(std::span(out).first(m), atoms, cert, gaps);
    }
    benchmark::DoNotOptimize(out.data());
    benchmark::DoNotOptimize(m);
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_MaxOf)->Arg(64)->Arg(256);

}  // namespace

BENCHMARK_MAIN();
