// Tests for the CSR hot-path substrate: structural equivalence of
// graph::CsrDag with the source Dag, allocation-free kernel correctness,
// bit-identity of the MC trial paths (the trial-lane kernel, and
// mc::sample_durations followed by the CSR longest path) against the
// reference scalar trial loop, and the engine's thread-count determinism
// contract.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

#include "core/failure_model.hpp"
#include "gen/lu.hpp"
#include "gen/random_dags.hpp"
#include "graph/csr.hpp"
#include "graph/topological.hpp"
#include "mc/engine.hpp"
#include "mc/trial.hpp"
#include "prob/rng.hpp"
#include "reference_estimators.hpp"
#include "scenario/scenario.hpp"
#include "test_helpers.hpp"

namespace {

using expmk::core::FailureModel;
using expmk::core::RetryModel;
using expmk::graph::CsrDag;
using expmk::graph::Dag;
using expmk::graph::TaskId;
using expmk::scenario::FailureSpec;
using expmk::scenario::Scenario;
using expmk::mc::kTrialLanes;
using expmk::ref::reference_trial;
using expmk::test::uniform_scenario;

std::vector<Dag> fixture_dags() {
  std::vector<Dag> out;
  out.push_back(expmk::test::diamond(0.4, 0.3, 0.5, 0.2));
  out.push_back(expmk::test::n_graph());
  out.push_back(expmk::gen::lu_dag(4));
  out.push_back(expmk::gen::layered_random(6, 5, 0.3, 123));
  return out;
}

TEST(CsrDag, OrderIsTopologicalAndPositionsInvert) {
  for (const Dag& g : fixture_dags()) {
    const CsrDag csr(g);
    ASSERT_EQ(csr.task_count(), g.task_count());
    ASSERT_EQ(csr.edge_count(), g.edge_count());
    const std::vector<TaskId> order(csr.order().begin(), csr.order().end());
    EXPECT_TRUE(expmk::graph::is_topological_order(g, order));
    for (std::uint32_t pos = 0; pos < csr.task_count(); ++pos) {
      EXPECT_EQ(csr.position_of(csr.original_id(pos)), pos);
      EXPECT_DOUBLE_EQ(csr.weights()[pos], g.weight(csr.original_id(pos)));
    }
  }
}

TEST(CsrDag, EdgesArePreservedAndPointForward) {
  for (const Dag& g : fixture_dags()) {
    const CsrDag csr(g);
    std::size_t pred_edges = 0, succ_edges = 0;
    for (std::uint32_t pos = 0; pos < csr.task_count(); ++pos) {
      const TaskId id = csr.original_id(pos);
      ASSERT_EQ(csr.preds(pos).size(), g.in_degree(id));
      ASSERT_EQ(csr.succs(pos).size(), g.out_degree(id));
      pred_edges += csr.preds(pos).size();
      succ_edges += csr.succs(pos).size();
      for (const std::uint32_t u : csr.preds(pos)) {
        EXPECT_LT(u, pos);  // topological renumbering: preds point back
        // And the edge exists in the Dag.
        bool found = false;
        for (const TaskId du : g.predecessors(id)) {
          found = found || csr.position_of(du) == u;
        }
        EXPECT_TRUE(found);
      }
      for (const std::uint32_t s : csr.succs(pos)) {
        EXPECT_GT(s, pos);
      }
    }
    EXPECT_EQ(pred_edges, g.edge_count());
    EXPECT_EQ(succ_edges, g.edge_count());
  }
}

TEST(CsrDag, RejectsCycles) {
  Dag g;
  const auto a = g.add_task(1.0);
  const auto b = g.add_task(1.0);
  g.add_edge(a, b);
  g.add_edge(b, a);
  EXPECT_THROW(CsrDag{g}, std::invalid_argument);
}

// The Dag-walking DP in tests/reference_estimators is the spec.
TEST(CsrKernels, CriticalPathMatchesDag) {
  for (const Dag& g : fixture_dags()) {
    const CsrDag csr(g);
    std::vector<double> finish(csr.task_count());
    const double via_csr =
        critical_path_length(csr, csr.weights(), finish);
    const double via_dag = expmk::ref::dag_critical_path(g, g.weights());
    EXPECT_DOUBLE_EQ(via_csr, via_dag);
  }
}

TEST(CsrKernels, LongestFromMatchesDag) {
  for (const Dag& g : fixture_dags()) {
    const CsrDag csr(g);
    const std::size_t n = g.task_count();
    std::vector<double> dist(n);
    for (std::uint32_t src = 0; src < n; ++src) {
      longest_from(csr, src, csr.weights(), dist);
      const auto ref =
          expmk::ref::dag_longest_from(g, csr.original_id(src), g.weights());
      for (std::uint32_t pos = src; pos < n; ++pos) {
        EXPECT_DOUBLE_EQ(dist[pos], ref[csr.original_id(pos)])
            << "src=" << src << " pos=" << pos;
      }
    }
  }
}

// The one allocating convenience, critical_path_length(const Dag&), is the
// scratch kernel on a freshly built view.
TEST(CsrKernels, DagConvenienceMatchesScratchKernel) {
  for (const Dag& g : fixture_dags()) {
    const CsrDag csr(g);
    std::vector<double> finish(g.task_count());
    EXPECT_EQ(expmk::graph::critical_path_length(g),
              critical_path_length(csr, csr.weights(), finish));
  }
  EXPECT_EQ(expmk::graph::critical_path_length(Dag{}), 0.0);
}

// The one-trial path — mc::sample_durations, then
// graph::critical_path_length over the CSR — reproduces the reference
// loop bit for bit.
TEST(CsrTrialKernel, BitIdenticalToReferenceScalarLoop) {
  for (const RetryModel retry :
       {RetryModel::Geometric, RetryModel::TwoState}) {
    for (const Dag& g : fixture_dags()) {
      const auto sc = uniform_scenario(g, 0.05, retry);
      std::vector<double> dur_pos(g.task_count());
      std::vector<double> finish(g.task_count());
      std::vector<double> durations;
      for (std::uint64_t t = 0; t < 500; ++t) {
        expmk::prob::McRng rng_csr(99, t);
        expmk::prob::McRng rng_ref(99, t);
        expmk::mc::sample_durations(sc, rng_csr, dur_pos);
        const double csr_makespan =
            expmk::graph::critical_path_length(sc.csr(), dur_pos, finish);
        const double ref_makespan = reference_trial(sc, rng_ref, durations);
        ASSERT_EQ(csr_makespan, ref_makespan) << "trial " << t;
      }
    }
  }
}

// sample_durations writes the reference loop's durations, position v
// holding task csr().order()[v], and counts the tasks that failed.
TEST(CsrTrialKernel, SampledDurationsMatchReferenceInDagOrder) {
  const Dag g = expmk::gen::lu_dag(4);
  for (const RetryModel retry :
       {RetryModel::Geometric, RetryModel::TwoState}) {
    const auto sc = uniform_scenario(g, 0.1, retry);
    const auto order = sc.csr().order();
    const auto w = sc.csr().weights();
    std::vector<double> dur_pos(g.task_count());
    std::vector<double> ref_durations;
    std::size_t total_failed = 0;
    for (std::uint64_t t = 0; t < 100; ++t) {
      expmk::prob::McRng rng_a(5, t);
      expmk::prob::McRng rng_b(5, t);
      const std::size_t failed =
          expmk::mc::sample_durations(sc, rng_a, dur_pos);
      (void)reference_trial(sc, rng_b, ref_durations);
      std::size_t longer = 0;
      for (std::uint32_t v = 0; v < dur_pos.size(); ++v) {
        ASSERT_EQ(dur_pos[v], ref_durations[order[v]]) << "position " << v;
        if (dur_pos[v] > w[v]) ++longer;
      }
      ASSERT_EQ(failed, longer) << "trial " << t;
      total_failed += failed;
    }
    EXPECT_GT(total_failed, 0u);
  }
}

TEST(CsrTrialKernel, SampleDurationsRejectsMissizedBuffer) {
  const Dag g = expmk::gen::lu_dag(3);
  const auto sc = uniform_scenario(g, 0.01, RetryModel::Geometric);
  expmk::prob::McRng rng(1);
  std::vector<double> too_small(g.task_count() - 1);
  std::vector<double> too_large(g.task_count() + 1);
  EXPECT_THROW((void)expmk::mc::sample_durations(sc, rng, too_small),
               std::invalid_argument);
  EXPECT_THROW((void)expmk::mc::sample_durations(sc, rng, too_large),
               std::invalid_argument);
  std::vector<double> sized(g.task_count());
  EXPECT_NO_THROW((void)expmk::mc::sample_durations(sc, rng, sized));
}

// The lane kernel (which also accumulates the control variate) draws the
// identical per-trial stream as the one-trial path: lane l of the batch
// at t0 has trial t0 + l's makespan.
TEST(CsrTrialKernel, ControlVariantDrawsIdenticalStream) {
  const Dag g = expmk::gen::lu_dag(4);
  const auto sc = uniform_scenario(g, 0.05, RetryModel::Geometric);
  std::vector<double> dur_pos(g.task_count());
  std::vector<double> finish(g.task_count());
  std::vector<double> lanes(g.task_count() * kTrialLanes);
  for (std::uint64_t t0 = 0; t0 < 200; t0 += kTrialLanes) {
    const auto obs = expmk::mc::run_trial_lanes(sc, 13, t0, lanes);
    for (std::size_t l = 0; l < kTrialLanes; ++l) {
      expmk::prob::McRng rng(13, t0 + l);
      expmk::mc::sample_durations(sc, rng, dur_pos);
      ASSERT_EQ(expmk::graph::critical_path_length(sc.csr(), dur_pos, finish),
                obs.makespan[l])
          << "trial " << t0 + l;
      ASSERT_GE(obs.control[l], 0.0);
    }
  }
}

// The trial-lane kernel, lane by lane: lane l of the batch at t0 is trial
// t0 + l of the reference loop — makespan AND control statistic, bit for
// bit — for both retry models, task counts that end a random tile
// mid-block (55, 140), a pfail high enough to exercise the geometric slow
// path in most batches, and a lane group crossing t = 2^32.
TEST(CsrTrialKernel, LanesMatchReferenceLoopPerLane) {
  std::vector<Dag> dags = fixture_dags();
  dags.push_back(expmk::gen::lu_dag(5));
  dags.push_back(expmk::gen::lu_dag(7));
  for (const RetryModel retry :
       {RetryModel::Geometric, RetryModel::TwoState}) {
    for (const Dag& g : dags) {
      const auto sc = uniform_scenario(g, 0.3, retry);
      std::vector<double> finish(g.task_count() * kTrialLanes);
      std::vector<double> durations;
      for (const std::uint64_t t0 :
           {std::uint64_t{0}, std::uint64_t{8}, std::uint64_t{77},
            (std::uint64_t{1} << 32) - 3}) {
        const auto obs = expmk::mc::run_trial_lanes(sc, 99, t0, finish);
        for (std::size_t l = 0; l < kTrialLanes; ++l) {
          expmk::prob::McRng rng(99, t0 + l);
          double control = 0.0;
          const double makespan =
              reference_trial(sc, rng, durations, &control);
          ASSERT_EQ(obs.makespan[l], makespan) << "trial " << t0 + l;
          ASSERT_EQ(obs.control[l], control) << "trial " << t0 + l;
        }
      }
    }
  }
}

TEST(CsrTrialKernel, LanesRejectMissizedScratch) {
  const Dag g = expmk::gen::lu_dag(3);
  const auto sc = uniform_scenario(g, 0.01);
  std::vector<double> one_trial(g.task_count());
  EXPECT_THROW((void)expmk::mc::run_trial_lanes(sc, 1, 0, one_trial),
               std::invalid_argument);
  std::vector<double> lanes(g.task_count() * kTrialLanes);
  EXPECT_NO_THROW((void)expmk::mc::run_trial_lanes(sc, 1, 0, lanes));
}

// The determinism regression the CSR rewrite must not break: on a 50-task
// LU DAG (k = 5 -> 55 tasks) the engine returns BIT-identical mean and
// variance for thread counts 1, 2 and 7 — exact double equality, not a
// tolerance — in both the plain and the control-variate configuration.
TEST(CsrEngineDeterminism, BitIdenticalAcrossThreadCounts) {
  const Dag g = expmk::gen::lu_dag(5);
  ASSERT_GE(g.task_count(), 50u);
  const auto sc = uniform_scenario(g, 0.01, RetryModel::Geometric);
  for (const bool cv : {false, true}) {
    expmk::mc::McConfig cfg;
    cfg.trials = 3000;
    cfg.seed = 77;
    cfg.control_variate = cv;
    cfg.threads = 1;
    const auto r1 = run_monte_carlo(sc, cfg);
    cfg.threads = 2;
    const auto r2 = run_monte_carlo(sc, cfg);
    cfg.threads = 7;
    const auto r7 = run_monte_carlo(sc, cfg);
    EXPECT_EQ(r1.mean, r2.mean) << "cv=" << cv;
    EXPECT_EQ(r2.mean, r7.mean) << "cv=" << cv;
    EXPECT_EQ(r1.variance, r2.variance) << "cv=" << cv;
    EXPECT_EQ(r2.variance, r7.variance) << "cv=" << cv;
    EXPECT_EQ(r1.trials, r7.trials);
  }
}

// End-to-end: the engine's per-trial samples equal the reference scalar
// loop's makespans trial for trial (capture_samples preserves trial
// order because chunk accumulators merge in chunk order).
TEST(CsrEngineDeterminism, EngineSamplesMatchReferenceLoop) {
  const Dag g = expmk::gen::lu_dag(5);
  const auto sc = uniform_scenario(g, 0.02, RetryModel::Geometric);
  expmk::mc::McConfig cfg;
  cfg.trials = 600;
  cfg.seed = 31337;
  cfg.capture_samples = true;
  const auto r = run_monte_carlo(sc, cfg);
  ASSERT_EQ(r.samples.size(), cfg.trials);
  std::vector<double> durations;
  for (std::uint64_t t = 0; t < cfg.trials; ++t) {
    expmk::prob::McRng rng(cfg.seed, t);
    ASSERT_EQ(r.samples[t], reference_trial(sc, rng, durations))
        << "trial " << t;
  }
}

// The trial-lane engine end to end: captured samples equal the reference
// loop trial for trial for trial counts around the lane width (1, 7, 8,
// 9), the unit size (63, 64, 65) and beyond (lane batches straddle chunk
// and unit boundaries), under both retry models, uniform and
// heterogeneous per-task rates at pfail 0.5, and 1/2/7 threads — and the
// control-variate estimate (mean, variance, plain mean) is bit-identical
// across those thread counts.
TEST(CsrEngineDeterminism, LaneEngineMatchesReferenceLoopEverywhere) {
  const Dag g = expmk::gen::lu_dag(5);  // 55 tasks: not a multiple of 16
  const double lambda = expmk::core::calibrate(g, 0.5).lambda;
  std::vector<double> rates(g.task_count());
  for (std::size_t i = 0; i < rates.size(); ++i) {
    rates[i] = lambda * (0.1 + 0.19 * static_cast<double>((i * 7) % 11));
  }
  const std::vector<FailureSpec> failures = {
      FailureSpec::uniform(lambda), FailureSpec::per_task(rates)};
  for (const RetryModel retry :
       {RetryModel::Geometric, RetryModel::TwoState}) {
    for (const FailureSpec& failure : failures) {
      const Scenario sc = Scenario::compile(g, failure, retry);
      std::vector<double> durations;
      for (const std::uint64_t trials :
           {1u, 7u, 8u, 9u, 63u, 64u, 65u, 200u, 1001u}) {
        expmk::mc::McConfig cfg;
        cfg.trials = trials;
        cfg.seed = 4242 + trials;
        cfg.capture_samples = true;
        cfg.control_variate = true;
        std::vector<double> reference(trials);
        for (std::uint64_t t = 0; t < trials; ++t) {
          expmk::prob::McRng rng(cfg.seed, t);
          reference[t] = reference_trial(sc, rng, durations);
        }
        expmk::mc::McResult first;
        for (const std::size_t threads : {1u, 2u, 7u}) {
          cfg.threads = threads;
          const auto r = run_monte_carlo(sc, cfg);
          ASSERT_EQ(r.samples.size(), trials);
          for (std::uint64_t t = 0; t < trials; ++t) {
            ASSERT_EQ(r.samples[t], reference[t])
                << "trials " << trials << " threads " << threads
                << " trial " << t;
          }
          if (threads == 1) {
            first = r;
            continue;
          }
          EXPECT_EQ(r.mean, first.mean) << "trials " << trials;
          EXPECT_EQ(r.variance, first.variance) << "trials " << trials;
          EXPECT_EQ(r.plain_mean, first.plain_mean) << "trials " << trials;
        }
      }
    }
  }
}

}  // namespace
