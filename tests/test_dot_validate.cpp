// Unit tests for graph/dot (Figures 1-3 exporter) and graph/validate.

#include <gtest/gtest.h>

#include <sstream>

#include "gen/cholesky.hpp"
#include "graph/dot.hpp"
#include "graph/validate.hpp"
#include "test_helpers.hpp"

namespace {

using expmk::graph::DotOptions;
using expmk::graph::validate;

std::string to_dot(const expmk::graph::Dag& g, const DotOptions& opts = {}) {
  std::ostringstream os;
  expmk::graph::write_dot(os, g, opts);
  return os.str();
}

TEST(Dot, EmitsNodesAndEdges) {
  const auto g = expmk::test::diamond();
  const std::string dot = to_dot(g);
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("\"A\""), std::string::npos);
  EXPECT_NE(dot.find("\"D\""), std::string::npos);
  // 4 edges.
  std::size_t arrows = 0;
  for (std::size_t pos = dot.find("->"); pos != std::string::npos;
       pos = dot.find("->", pos + 1)) {
    ++arrows;
  }
  EXPECT_EQ(arrows, 4u);
}

TEST(Dot, KernelColoringForFactorizationTasks) {
  const auto g = expmk::gen::cholesky_dag(3);
  const std::string dot = to_dot(g);
  EXPECT_NE(dot.find("POTRF_0"), std::string::npos);
  // POTRF family color from the palette.
  EXPECT_NE(dot.find("#ffd29b"), std::string::npos);
}

TEST(Dot, WeightsShownOnRequest) {
  DotOptions opts;
  opts.show_weights = true;
  const auto g = expmk::test::diamond(1.5, 2.0, 3.0, 4.0);
  const std::string dot = to_dot(g, opts);
  EXPECT_NE(dot.find("1.5s"), std::string::npos);
}

TEST(Validate, AcceptsHealthyGraphs) {
  const auto report = validate(expmk::gen::cholesky_dag(4));
  EXPECT_TRUE(report.ok()) << (report.problems.empty()
                                   ? ""
                                   : report.problems.front());
  EXPECT_TRUE(report.acyclic);
  EXPECT_EQ(report.component_count, 1u);
  EXPECT_EQ(report.entry_count, 1u);  // POTRF_0
}

TEST(Validate, FlagsCycle) {
  expmk::graph::Dag g;
  const auto a = g.add_task(1.0);
  const auto b = g.add_task(1.0);
  g.add_edge(a, b);
  g.add_edge(b, a);
  const auto report = validate(g);
  EXPECT_FALSE(report.acyclic);
  EXPECT_FALSE(report.ok());
  EXPECT_FALSE(report.problems.empty());
}

TEST(Validate, FlagsDuplicateEdges) {
  expmk::graph::Dag g;
  const auto a = g.add_task(1.0);
  const auto b = g.add_task(1.0);
  g.add_edge(a, b);
  g.add_edge(a, b);
  const auto report = validate(g);
  EXPECT_TRUE(report.has_duplicate_edges);
  EXPECT_FALSE(report.ok());
}

TEST(Validate, CountsComponents) {
  expmk::graph::Dag g;
  const auto a = g.add_task(1.0);
  const auto b = g.add_task(1.0);
  g.add_task(1.0);  // isolated third task
  g.add_edge(a, b);
  const auto report = validate(g);
  EXPECT_EQ(report.component_count, 2u);
}

TEST(Validate, EmptyGraphRejected) {
  const auto report = validate(expmk::graph::Dag{});
  EXPECT_FALSE(report.ok());
}

}  // namespace
