// bench/bench_dist.cpp
//
// Flat-distribution-engine microbenchmark: the cost of the distribution
// arithmetic — prob::dist_kernels span kernels on warm
// exp::Workspace-leased arenas (zero steady-state allocations). Two tiers
// of rows:
//   * convolve / max-of kernels over atom-count pairs;
//   * end-to-end sp and dodin evaluations through the flat engine behind
//     the registry, over generator DAGs.
//
// Emits BENCH_dist.json (flat_us per row; the sp/dodin rows also carry
// the tasks/edges/atoms features bench/fit_cost_model.py fits the
// planner's cost coefficients from). CI runs a reduced-rep smoke and
// uploads the artifact.
//
//   ./bench_dist [reps]   (default: 2000)

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/failure_model.hpp"
#include "exp/workspace.hpp"
#include "gen/lu.hpp"
#include "gen/random_dags.hpp"
#include "prob/dist_kernels.hpp"
#include "prob/rng.hpp"
#include "scenario/scenario.hpp"
#include "spgraph/dodin.hpp"
#include "spgraph/sp_reduce.hpp"
#include "util/simd.hpp"
#include "util/timer.hpp"

namespace {

using namespace expmk;
namespace dk = prob::dist_kernels;

double checksum_guard = 0.0;  // keeps the loops from eliding

struct Row {
  std::string op;
  std::string size;  // "64x64" atoms or "tasks=60"
  double flat_us = 0.0;
  // Structured features on the end-to-end sp/dodin rows (zero elsewhere):
  // bench/fit_cost_model.py fits the planner's per-method cost
  // coefficients from these.
  std::size_t tasks = 0;
  std::size_t edges = 0;
  std::size_t atoms = 0;
};

prob::DiscreteDistribution random_dist(std::size_t atoms,
                                       std::uint64_t seed) {
  prob::Xoshiro256pp rng(seed, 17);
  std::vector<prob::Atom> raw(atoms);
  double v = 0.0;
  for (auto& at : raw) {
    v += 0.1 + rng.uniform();
    at = {v, 0.05 + rng.uniform()};
  }
  return prob::DiscreteDistribution::from_atoms(std::move(raw));
}

Row bench_kernel_op(const char* op, std::size_t nx, std::size_t ny,
                    std::uint64_t reps) {
  const auto x = random_dist(nx, 11);
  const auto y = random_dist(ny, 23);
  const bool is_convolve = std::string(op) == "convolve";
  Row row;
  row.op = op;
  row.size = std::to_string(nx) + "x" + std::to_string(ny);
  exp::Workspace ws;
  const util::Timer t;
  for (std::uint64_t r = 0; r < reps; ++r) {
    const exp::Workspace::Frame frame(ws);
    const auto out = ws.atoms(is_convolve ? nx * ny : nx + ny);
    dk::TruncationCert uncapped;
    const std::size_t m =
        is_convolve ? dk::convolve(x.atoms(), y.atoms(), 0, uncapped, out,
                                   ws.atoms(nx * ny), {})
                    : dk::max_of(x.atoms(), y.atoms(), out);
    checksum_guard += dk::mean(out.subspan(0, m));
  }
  row.flat_us = t.seconds() * 1e6 / static_cast<double>(reps);
  return row;
}

Row bench_sp(const char* label, const graph::Dag& g, std::uint64_t reps) {
  const auto sc = scenario::Scenario::calibrated(g, 0.01);
  const std::size_t max_atoms = 64;
  Row row;
  row.op = "sp";
  row.size = std::string(label) + " tasks=" + std::to_string(g.task_count());
  row.tasks = g.task_count();
  row.edges = g.edge_count();
  row.atoms = max_atoms;
  exp::Workspace ws;
  (void)sp::evaluate_sp_flat(sc, max_atoms, ws);  // warm the arenas
  const util::Timer t;
  for (std::uint64_t r = 0; r < reps; ++r) {
    checksum_guard += sp::evaluate_sp_flat(sc, max_atoms, ws).mean;
  }
  row.flat_us = t.seconds() * 1e6 / static_cast<double>(reps);
  return row;
}

Row bench_dodin(const char* label, const graph::Dag& g, std::uint64_t reps) {
  const auto sc = scenario::Scenario::calibrated(g, 0.01);
  const sp::DodinOptions opts{.max_atoms = 128};
  Row row;
  row.op = "dodin";
  row.size = std::string(label) + " tasks=" + std::to_string(g.task_count());
  row.tasks = g.task_count();
  row.edges = g.edge_count();
  row.atoms = opts.max_atoms;
  exp::Workspace ws;
  (void)sp::dodin_two_state_flat(sc, opts, ws);  // warm the arenas
  const util::Timer t;
  for (std::uint64_t r = 0; r < reps; ++r) {
    checksum_guard += sp::dodin_two_state_flat(sc, opts, ws).mean;
  }
  row.flat_us = t.seconds() * 1e6 / static_cast<double>(reps);
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  const std::uint64_t reps =
      bench::count_arg(argc, argv, 1, 2000, "bench_dist [reps >= 1]");

  std::printf("bench_dist: flat distribution kernels, %llu reps/row\n",
              static_cast<unsigned long long>(reps));

  std::vector<Row> rows;
  // Convolve over a 16..1024 atom grid: small sizes show the dispatch
  // overhead floor, large sizes the scalar/SIMD crossover.
  rows.push_back(bench_kernel_op("convolve", 16, 16, reps));
  rows.push_back(bench_kernel_op("convolve", 64, 64, reps / 4 + 1));
  rows.push_back(bench_kernel_op("convolve", 256, 256, reps / 64 + 1));
  rows.push_back(bench_kernel_op("convolve", 1024, 1024, reps / 1000 + 1));
  rows.push_back(bench_kernel_op("max_of", 64, 64, reps));
  rows.push_back(bench_kernel_op("max_of", 256, 256, reps / 4 + 1));
  rows.push_back(
      bench_sp("sp60", gen::random_series_parallel(60, 7), reps / 10 + 1));
  rows.push_back(
      bench_sp("sp200", gen::random_series_parallel(200, 9), reps / 40 + 1));
  rows.push_back(bench_dodin("lu4", gen::lu_dag(4), reps / 40 + 1));
  rows.push_back(
      bench_dodin("erdos30", gen::erdos_dag(30, 0.2, 5), reps / 40 + 1));

  std::vector<bench::JsonWriter> json_rows;
  for (const Row& row : rows) {
    std::printf("  %-10s %-18s flat %9.2f us\n", row.op.c_str(),
                row.size.c_str(), row.flat_us);
    bench::JsonWriter w;
    w.field("op", row.op).field("size", row.size).field("flat_us", row.flat_us);
    if (row.tasks > 0) {
      w.field("tasks", row.tasks)
          .field("edges", row.edges)
          .field("atoms", row.atoms);
    }
    json_rows.push_back(std::move(w));
  }
  bench::JsonWriter top;
  top.field("bench", "dist_kernels")
      .field("reps", reps)
      .field("backend", util::simd::name(util::simd::active()));
  top.array("rows", json_rows);
  std::ofstream out("BENCH_dist.json");
  out << top.str() << "\n";
  std::printf("wrote BENCH_dist.json (checksum %.3f)\n", checksum_guard);
  return 0;
}
