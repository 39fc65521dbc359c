// examples/factorization_gallery.cpp
//
// Regenerates the paper's Figures 1-3: the Cholesky, LU and QR task DAGs
// for a 5x5 tile matrix, written as Graphviz .dot files (one color per
// BLAS kernel family), plus a per-class summary: task/edge counts,
// per-kernel census, critical path, and the expected-makespan estimates
// at the paper's three failure rates.
//
//   $ ./factorization_gallery --k 5 --outdir .
//   $ dot -Tpdf cholesky_k5.dot -o cholesky_k5.pdf   # if graphviz is around

#include <cstdio>
#include <fstream>
#include <map>
#include <string>

#include "core/failure_model.hpp"
#include "core/first_order.hpp"
#include "gen/cholesky.hpp"
#include "gen/kernels.hpp"
#include "gen/lu.hpp"
#include "gen/qr.hpp"
#include "graph/dot.hpp"
#include "graph/csr.hpp"
#include "scenario/scenario.hpp"
#include "util/cli.hpp"

namespace {

void describe(const expmk::graph::Dag& g, const std::string& name,
              const std::string& outdir, int k) {
  using namespace expmk;

  const std::string path =
      outdir + "/" + name + "_k" + std::to_string(k) + ".dot";
  std::ofstream out(path);
  graph::DotOptions opts;
  opts.graph_name = name;
  graph::write_dot(out, g, opts);

  std::map<std::string, int> census;
  for (graph::TaskId i = 0; i < g.task_count(); ++i) {
    census[std::string(
        gen::kernel_family_name(gen::kernel_family_of(g.name(i))))]++;
  }

  std::printf("%s (k=%d): %zu tasks, %zu edges -> %s\n", name.c_str(), k,
              g.task_count(), g.edge_count(), path.c_str());
  std::printf("  kernels:");
  for (const auto& [kernel, count] : census) {
    std::printf(" %s x%d", kernel.c_str(), count);
  }
  std::printf("\n  mean task weight %.4f s, critical path %.4f s\n",
              g.mean_weight(), graph::critical_path_length(g));

  exp::Workspace ws;
  for (const double pfail : {0.01, 0.001, 0.0001}) {
    const auto sc = scenario::Scenario::calibrated(g, pfail);
    const auto fo = core::first_order(sc, ws);
    std::printf(
        "  pfail=%-7g lambda=%.6f  E[makespan] ~ %.6f s (first order, "
        "+%.4f%% over failure-free)\n",
        pfail, sc.uniform_model().lambda, fo.expected_makespan(),
        100.0 * fo.correction / fo.critical_path);
  }
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  expmk::util::Cli cli("factorization_gallery",
                       "Regenerates the DAGs of the paper's Figures 1-3");
  cli.add_int("k", 5, "tile count (the paper's figures use 5)");
  cli.add_string("outdir", ".", "directory for the .dot files");
  cli.parse(argc, argv);
  if (cli.get_int("k") < 1) cli.fail("--k must be >= 1");
  const int k = static_cast<int>(cli.get_int("k"));
  const std::string outdir = cli.get_string("outdir");

  describe(expmk::gen::cholesky_dag(k), "cholesky", outdir, k);
  describe(expmk::gen::lu_dag(k), "lu", outdir, k);
  describe(expmk::gen::qr_dag(k), "qr", outdir, k);
  return 0;
}
