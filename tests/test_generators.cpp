// Unit tests for the factorization DAG generators: task-count closed
// forms (matching the paper's Figures 1-3), structural dependencies,
// validation, and the a-bar statistics the paper's calibration relies on.

#include <gtest/gtest.h>

#include "gen/cholesky.hpp"
#include "gen/kernels.hpp"
#include "gen/lu.hpp"
#include "gen/qr.hpp"
#include "graph/csr.hpp"
#include "graph/validate.hpp"

namespace {

using expmk::gen::cholesky_dag;
using expmk::gen::cholesky_task_count;
using expmk::gen::lu_dag;
using expmk::gen::lu_task_count;
using expmk::gen::qr_dag;
using expmk::gen::qr_task_count;

TEST(Generators, PaperFigureTaskCounts) {
  // Figure 1: Cholesky k=5 has 35 tasks; Figures 2-3: LU/QR k=5 have 55.
  EXPECT_EQ(cholesky_dag(5).task_count(), 35u);
  EXPECT_EQ(lu_dag(5).task_count(), 55u);
  EXPECT_EQ(qr_dag(5).task_count(), 55u);
  // Table I: LU k=20 has 2870 tasks.
  EXPECT_EQ(lu_dag(20).task_count(), 2870u);
}

class GeneratorCountSweep : public ::testing::TestWithParam<int> {};

TEST_P(GeneratorCountSweep, ClosedFormsMatchConstruction) {
  const int k = GetParam();
  EXPECT_EQ(cholesky_dag(k).task_count(), cholesky_task_count(k));
  EXPECT_EQ(lu_dag(k).task_count(), lu_task_count(k));
  EXPECT_EQ(qr_dag(k).task_count(), qr_task_count(k));
  EXPECT_EQ(lu_task_count(k), qr_task_count(k));
}

TEST_P(GeneratorCountSweep, AllDagsValidate) {
  const int k = GetParam();
  for (const auto& g : {cholesky_dag(k), lu_dag(k), qr_dag(k)}) {
    const auto report = expmk::graph::validate(g);
    EXPECT_TRUE(report.ok()) << "k=" << k;
    EXPECT_EQ(report.entry_count, 1u);   // the step-0 panel task
    EXPECT_EQ(report.component_count, 1u);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, GeneratorCountSweep,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 8, 10, 12));

TEST(Generators, CholeskyDependenciesSpotCheck) {
  const auto g = cholesky_dag(4);
  const auto id = [&](const char* name) {
    const auto t = g.find_by_name(name);
    EXPECT_NE(t, expmk::graph::kNoTask) << name;
    return t;
  };
  const auto has_edge = [&](const char* from, const char* to) {
    const auto f = id(from), t = id(to);
    const auto succ = g.successors(f);
    return std::find(succ.begin(), succ.end(), t) != succ.end();
  };
  EXPECT_TRUE(has_edge("POTRF_0", "TRSM_1_0"));
  EXPECT_TRUE(has_edge("TRSM_1_0", "SYRK_1_0"));
  EXPECT_TRUE(has_edge("SYRK_1_0", "POTRF_1"));
  EXPECT_TRUE(has_edge("TRSM_2_0", "GEMM_2_1_0"));
  EXPECT_TRUE(has_edge("TRSM_1_0", "GEMM_2_1_0"));
  EXPECT_TRUE(has_edge("GEMM_2_1_0", "TRSM_2_1"));
  EXPECT_TRUE(has_edge("SYRK_2_0", "SYRK_2_1"));
  EXPECT_FALSE(has_edge("POTRF_0", "POTRF_1"));  // only via SYRK chain
}

TEST(Generators, LuDependenciesSpotCheck) {
  const auto g = lu_dag(4);
  const auto has_edge = [&](const char* from, const char* to) {
    const auto f = g.find_by_name(from), t = g.find_by_name(to);
    EXPECT_NE(f, expmk::graph::kNoTask) << from;
    EXPECT_NE(t, expmk::graph::kNoTask) << to;
    const auto succ = g.successors(f);
    return std::find(succ.begin(), succ.end(), t) != succ.end();
  };
  EXPECT_TRUE(has_edge("GETRF_0", "TRSML_1_0"));
  EXPECT_TRUE(has_edge("GETRF_0", "TRSMU_0_1"));
  EXPECT_TRUE(has_edge("TRSML_1_0", "GEMM_1_1_0"));
  EXPECT_TRUE(has_edge("TRSMU_0_1", "GEMM_1_1_0"));
  EXPECT_TRUE(has_edge("GEMM_1_1_0", "GETRF_1"));
  EXPECT_TRUE(has_edge("GEMM_2_2_0", "GEMM_2_2_1"));
  EXPECT_TRUE(has_edge("GEMM_2_1_0", "TRSML_2_1"));
}

TEST(Generators, QrDependenciesSpotCheck) {
  const auto g = qr_dag(4);
  const auto has_edge = [&](const char* from, const char* to) {
    const auto f = g.find_by_name(from), t = g.find_by_name(to);
    EXPECT_NE(f, expmk::graph::kNoTask) << from;
    EXPECT_NE(t, expmk::graph::kNoTask) << to;
    const auto succ = g.successors(f);
    return std::find(succ.begin(), succ.end(), t) != succ.end();
  };
  EXPECT_TRUE(has_edge("GEQRT_0", "TSQRT_1_0"));
  EXPECT_TRUE(has_edge("TSQRT_1_0", "TSQRT_2_0"));  // panel chain
  EXPECT_TRUE(has_edge("GEQRT_0", "UNMQR_0_1"));
  EXPECT_TRUE(has_edge("UNMQR_0_1", "TSMQR_1_1_0"));
  EXPECT_TRUE(has_edge("TSMQR_1_1_0", "TSMQR_2_1_0"));  // column chain
  EXPECT_TRUE(has_edge("TSQRT_1_0", "TSMQR_1_1_0"));
  EXPECT_TRUE(has_edge("TSMQR_1_1_0", "GEQRT_1"));
}

TEST(Generators, MeanWeightsMatchPaperScale) {
  // The paper reports a-bar = 0.15 s; our default tables were chosen to
  // match that scale for Cholesky/LU, with QR about twice LU.
  const double cholesky_abar = cholesky_dag(12).mean_weight();
  const double lu_abar = lu_dag(12).mean_weight();
  const double qr_abar = qr_dag(12).mean_weight();
  EXPECT_NEAR(cholesky_abar, 0.15, 0.02);
  EXPECT_NEAR(lu_abar, 0.16, 0.02);
  EXPECT_NEAR(qr_abar / lu_abar, 2.0, 0.4);
}

TEST(Generators, QrCostsRoughlyTwiceLu) {
  EXPECT_NEAR(qr_dag(8).total_weight() / lu_dag(8).total_weight(), 2.0, 0.4);
}

TEST(Generators, CustomTimingsPropagate) {
  expmk::gen::CholeskyTimings t;
  t.potrf = 1.0;
  t.trsm = 2.0;
  t.syrk = 3.0;
  t.gemm = 4.0;
  const auto g = cholesky_dag(3, t);
  EXPECT_DOUBLE_EQ(g.weight(g.find_by_name("POTRF_0")), 1.0);
  EXPECT_DOUBLE_EQ(g.weight(g.find_by_name("TRSM_1_0")), 2.0);
  EXPECT_DOUBLE_EQ(g.weight(g.find_by_name("SYRK_2_1")), 3.0);
  EXPECT_DOUBLE_EQ(g.weight(g.find_by_name("GEMM_2_1_0")), 4.0);
}

TEST(Generators, InvalidSizesThrow) {
  EXPECT_THROW((void)cholesky_dag(0), std::invalid_argument);
  EXPECT_THROW((void)lu_dag(-1), std::invalid_argument);
  EXPECT_THROW((void)qr_dag(0), std::invalid_argument);
}

TEST(Generators, CriticalPathGrowsLinearlyInK) {
  // The critical path of these factorizations is Theta(k): sanity-check
  // monotone growth.
  double prev = 0.0;
  for (const int k : {2, 4, 6, 8}) {
    const double d = expmk::graph::critical_path_length(cholesky_dag(k));
    EXPECT_GT(d, prev);
    prev = d;
  }
}

TEST(KernelFamily, ParsesNames) {
  using expmk::gen::KernelFamily;
  using expmk::gen::kernel_family_of;
  EXPECT_EQ(kernel_family_of("POTRF_3"), KernelFamily::POTRF);
  EXPECT_EQ(kernel_family_of("GEMM_4_2_1"), KernelFamily::GEMM);
  EXPECT_EQ(kernel_family_of("TSMQR_1_1_0"), KernelFamily::TSMQR);
  EXPECT_EQ(kernel_family_of("whatever"), KernelFamily::Unknown);
  EXPECT_EQ(expmk::gen::kernel_family_name(KernelFamily::SYRK), "SYRK");
}

}  // namespace
