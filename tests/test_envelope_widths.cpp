// tests/test_envelope_widths.cpp
//
// Envelope-width regression gate for the atom-cap kernels. The certified
// envelope [mean_lo, mean_hi] of a truncated SP/Dodin evaluation measures
// how much the atom cap may have moved the answer; a kernel change that
// is faster but certifies a wider interval trades accuracy for speed
// silently. Each row pins the width recorded for the halving-pass
// truncation (the kernel now kept in tests/dist_kernels_reference) on
// the paper_grid Dodin cells and the whatif_scale sp.hier target, and
// fails if the width grows. Widths may shrink freely; a failure prints
// the measured width as a hex-float literal.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "core/failure_model.hpp"
#include "exp/evaluator.hpp"
#include "exp/hier.hpp"
#include "gen/cholesky.hpp"
#include "gen/lu.hpp"
#include "gen/qr.hpp"
#include "gen/random_dags.hpp"
#include "graph/dag.hpp"
#include "scenario/scenario.hpp"

namespace {

using namespace expmk;

constexpr std::size_t kAtoms = 256;

std::string hex(double x) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%a", x);
  return buf;
}

/// mean_hi - mean_lo of one registry call, with the cap forced on.
double width(const char* method, const graph::Dag& g, double pfail) {
  const scenario::Scenario sc =
      scenario::Scenario::compile(g, scenario::FailureSpec(core::calibrate(g, pfail)));
  exp::EvalOptions opt;
  opt.dodin_atoms = kAtoms;
  opt.sp_max_atoms = kAtoms;
  opt.threads = 1;
  exp::hier::memo_clear();
  const exp::EvalResult r =
      exp::EvaluatorRegistry::builtin().find(method)->evaluate(sc, opt);
  exp::hier::memo_clear();
  EXPECT_TRUE(r.supported) << method << ": " << r.note;
  return r.mean_hi - r.mean_lo;
}

struct Row {
  const char* label;
  double pfail;
  double recorded;  // width under the halving-pass truncation
};

// {dag, pfail, recorded width}: dodin at 256 atoms on paper_grid's DAGs.
const Row kDodin[] = {
    {"lu8", 1e-3, 0x1.701c702fadcp-8},
    {"lu8", 1e-2, 0x1.14e04b0d3448p-5},
    {"lu8", 1e-1, 0x1.a1880435b97p-4},
    {"qr8", 1e-3, 0x1.7c55981ae21p-5},
    {"qr8", 1e-2, 0x1.763bbbafb43cp-4},
    {"qr8", 1e-1, 0x1.66c9b9fae008p-3},
    {"cholesky10", 1e-3, 0x1.2ed7e1feebcp-8},
    {"cholesky10", 1e-2, 0x1.6d3ecffd0f7p-5},
    {"cholesky10", 1e-1, 0x1.301587e4a682p-3},
};

// sp.hier at 256 atoms on whatif_scale's series-parallel target.
constexpr double kHierRecorded = 0x1.bb12522a0d18p-1;

graph::Dag dag_of(const std::string& label) {
  if (label == "lu8") return gen::lu_dag(8);
  if (label == "qr8") return gen::qr_dag(8);
  return gen::cholesky_dag(10);
}

TEST(EnvelopeWidths, DodinNoWiderThanRecorded) {
  for (const Row& row : kDodin) {
    const double w = width("dodin", dag_of(row.label), row.pfail);
    EXPECT_GT(w, 0.0) << row.label << " pfail " << row.pfail;
    EXPECT_LE(w, row.recorded)
        << row.label << " pfail " << row.pfail << ": measured " << hex(w)
        << " recorded " << hex(row.recorded);
    std::printf("dodin %-10s pfail %-6g width %s (recorded %s, ratio %.4f)\n",
                row.label, row.pfail, hex(w).c_str(), hex(row.recorded).c_str(),
                w / row.recorded);
  }
}

TEST(EnvelopeWidths, SpHierNoWiderThanRecorded) {
  const double w = width("sp.hier", gen::tiled_fork_join(50, 40, 10, 7), 1e-2);
  EXPECT_GT(w, 0.0);
  EXPECT_LE(w, kHierRecorded)
      << "measured " << hex(w) << " recorded " << hex(kHierRecorded);
  std::printf("sp.hier tiled_fork_join(50,40,10) width %s (recorded %s, ratio %.4f)\n",
              hex(w).c_str(), hex(kHierRecorded).c_str(), w / kHierRecorded);
}

}  // namespace
