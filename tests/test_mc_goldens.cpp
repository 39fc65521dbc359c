// tests/test_mc_goldens.cpp
//
// Bitwise goldens for the Monte-Carlo consumers of the trial sampler:
//
//  * mc (run_monte_carlo), plain and control-variate, under both retry
//    models: mean, std_error, min, max;
//  * cmc (run_conditional_monte_carlo) at pfail 1e-3 and 0.3, plus a
//    rejection cap small enough to censor trials: mean, std_error,
//    censored_trials, avg_rejections;
//  * core::criticality_probabilities under both retry models: the whole
//    per-task vector;
//  * sched::simulate_with_faults under both retry models: the mean, min
//    and max of the achieved makespans.
//
// The `*.Deterministic` tests elsewhere compare one binary with itself;
// these pin the answers across code versions. Doubles are recorded as
// hex-float literals, so a one-ulp drift in a draw, a duration or a fold
// order fails here. On a mismatch the test prints the measured value in
// table syntax.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "core/criticality.hpp"
#include "exp/workspace.hpp"
#include "gen/cholesky.hpp"
#include "gen/lu.hpp"
#include "mc/conditional.hpp"
#include "mc/engine.hpp"
#include "scenario/scenario.hpp"
#include "sched/fault_sim.hpp"

namespace {

using namespace expmk;

constexpr auto kTwoState = core::RetryModel::TwoState;
constexpr auto kGeometric = core::RetryModel::Geometric;

struct Golden {
  const char* name;
  double value;
};

struct Measured {
  std::string name;
  double value;
};

std::uint64_t bits(double x) {
  std::uint64_t u;
  std::memcpy(&u, &x, sizeof u);
  return u;
}

std::string literal(const Measured& m) {
  char buf[256];
  std::snprintf(buf, sizeof buf, "{\"%s\", %a},", m.name.c_str(), m.value);
  return buf;
}

const char* retry_name(core::RetryModel retry) {
  return retry == kTwoState ? "two" : "geo";
}

std::vector<Measured> measure_all() {
  std::vector<Measured> out;
  const auto put = [&](std::string name, double v) {
    out.push_back({std::move(name), v});
  };

  const graph::Dag lu = gen::lu_dag(6);
  for (const core::RetryModel retry : {kTwoState, kGeometric}) {
    const auto sc = scenario::Scenario::calibrated(lu, 0.01, retry);
    for (const bool cv : {false, true}) {
      mc::McConfig cfg;
      cfg.trials = 5'000;
      cfg.seed = 1234;
      cfg.threads = 1;
      cfg.control_variate = cv;
      const mc::McResult r = mc::run_monte_carlo(sc, cfg);
      const std::string key = std::string("mc.") + retry_name(retry) +
                              (cv ? ".cv" : ".plain");
      put(key + ".mean", r.mean);
      put(key + ".std_error", r.std_error);
      put(key + ".min", r.min);
      put(key + ".max", r.max);
    }
  }

  struct CmcCase {
    const char* key;
    double pfail;
    std::uint64_t max_rejections;
  };
  for (const CmcCase& c : {CmcCase{"cmc.p1e-3", 1e-3, 1'000'000},
                           CmcCase{"cmc.p0.3", 0.3, 1'000'000},
                           CmcCase{"cmc.p1e-3.cap2", 1e-3, 2}}) {
    const auto sc = scenario::Scenario::calibrated(lu, c.pfail, kTwoState);
    mc::ConditionalMcConfig cfg;
    cfg.trials = 3'000;
    cfg.seed = 77;
    cfg.threads = 1;
    cfg.max_rejections_per_trial = c.max_rejections;
    const mc::ConditionalMcResult r = mc::run_conditional_monte_carlo(sc, cfg);
    const std::string key = c.key;
    put(key + ".mean", r.mean);
    put(key + ".std_error", r.std_error);
    put(key + ".censored_trials", static_cast<double>(r.censored_trials));
    put(key + ".avg_rejections", r.avg_rejections);
  }

  const graph::Dag chol = gen::cholesky_dag(3);
  exp::Workspace ws;
  for (const core::RetryModel retry : {kTwoState, kGeometric}) {
    const auto sc = scenario::Scenario::calibrated(chol, 0.2, retry);
    core::CriticalityConfig cfg;
    cfg.trials = 2'000;
    cfg.seed = 5;
    const std::vector<double> p = core::criticality_probabilities(sc, cfg, ws);
    for (std::size_t i = 0; i < p.size(); ++i) {
      put(std::string("crit.") + retry_name(retry) + "[" + std::to_string(i) +
              "]",
          p[i]);
    }
  }

  for (const core::RetryModel retry : {kTwoState, kGeometric}) {
    const auto sc = scenario::Scenario::calibrated(chol, 0.1, retry);
    const auto prio = sched::priorities(sc, sched::PriorityKind::BottomLevel);
    sched::FaultSimConfig cfg;
    cfg.runs = 500;
    cfg.seed = 31;
    const sched::FaultSimResult r = sched::simulate_with_faults(
        sc, prio, sched::Machine(3), cfg, ws);
    const std::string key = std::string("faultsim.") + retry_name(retry);
    put(key + ".mean", r.makespan.mean());
    put(key + ".min", r.makespan.min());
    put(key + ".max", r.makespan.max());
  }
  return out;
}

const Golden kGoldens[] = {
    {"mc.two.plain.mean", 0x1.10f135e2baf5ap+1},
    {"mc.two.plain.std_error", 0x1.b386838abc8e7p-11},
    {"mc.two.plain.min", 0x1.0d59b3d07c84bp+1},
    {"mc.two.plain.max", 0x1.4027525460aa6p+1},
    {"mc.two.cv.mean", 0x1.10f72c549cdedp+1},
    {"mc.two.cv.std_error", 0x1.80359bd84a8cep-11},
    {"mc.two.cv.min", 0x1.0d59b3d07c84bp+1},
    {"mc.two.cv.max", 0x1.4027525460aa6p+1},
    {"mc.geo.plain.mean", 0x1.1148eedc4133ep+1},
    {"mc.geo.plain.std_error", 0x1.cf91a786f23a1p-11},
    {"mc.geo.plain.min", 0x1.0d59b3d07c84bp+1},
    {"mc.geo.plain.max", 0x1.485532617c1bep+1},
    {"mc.geo.cv.mean", 0x1.114104bf90673p+1},
    {"mc.geo.cv.std_error", 0x1.93da8db183b5fp-11},
    {"mc.geo.cv.min", 0x1.0d59b3d07c84bp+1},
    {"mc.geo.cv.max", 0x1.485532617c1bep+1},
    {"cmc.p1e-3.mean", 0x1.0db9894d0c4f3p+1},
    {"cmc.p1e-3.std_error", 0x1.7a517a60f63d3p-14},
    {"cmc.p1e-3.censored_trials", 0x0p+0},
    {"cmc.p1e-3.avg_rejections", 0x1.4b619f0fb38a9p+3},
    {"cmc.p0.3.mean", 0x1.6d77b30699bep+1},
    {"cmc.p0.3.std_error", 0x1.09ffe0211defp-8},
    {"cmc.p0.3.censored_trials", 0x0p+0},
    {"cmc.p0.3.avg_rejections", 0x0p+0},
    {"cmc.p1e-3.cap2.mean", 0x1.0dbe80078002bp+1},
    {"cmc.p1e-3.cap2.std_error", 0x1.cf4ba6b61df8ap-13},
    {"cmc.p1e-3.cap2.censored_trials", 0x1.32cp+11},
    {"cmc.p1e-3.cap2.avg_rejections", 0x1.2eb5eb5eb5eb6p+3},
    {"crit.two[0]", 0x1p+0},
    {"crit.two[1]", 0x1.ae978d4fdf3b6p-1},
    {"crit.two[2]", 0x1.65604189374bcp-3},
    {"crit.two[3]", 0x1.628f5c28f5c29p-1},
    {"crit.two[4]", 0x0p+0},
    {"crit.two[5]", 0x1.a6a7ef9db22d1p-1},
    {"crit.two[6]", 0x1.65604189374bcp-3},
    {"crit.two[7]", 0x1p+0},
    {"crit.two[8]", 0x1p+0},
    {"crit.two[9]", 0x1p+0},
    {"crit.geo[0]", 0x1p+0},
    {"crit.geo[1]", 0x1.a624dd2f1a9fcp-1},
    {"crit.geo[2]", 0x1.71a9fbe76c8b4p-3},
    {"crit.geo[3]", 0x1.5e76c8b439581p-1},
    {"crit.geo[4]", 0x1.26e978d4fdf3bp-7},
    {"crit.geo[5]", 0x1.9ef9db22d0e56p-1},
    {"crit.geo[6]", 0x1.71a9fbe76c8b4p-3},
    {"crit.geo[7]", 0x1.fb645a1cac083p-1},
    {"crit.geo[8]", 0x1p+0},
    {"crit.geo[9]", 0x1p+0},
    {"faultsim.two.mean", 0x1.55dd1d7ce888fp-1},
    {"faultsim.two.min", 0x1.2a71de69ad42cp-1},
    {"faultsim.two.max", 0x1.0cb295e9e1b09p+0},
    {"faultsim.geo.mean", 0x1.5f06c0e4613e7p-1},
    {"faultsim.geo.min", 0x1.2a71de69ad42cp-1},
    {"faultsim.geo.max", 0x1.3aee631f8a09p+0},
};

TEST(McGoldens, BitIdenticalToRecordedAnswers) {
  const std::vector<Measured> got = measure_all();
  std::size_t checked = 0;
  for (const Measured& m : got) {
    const Golden* want = nullptr;
    for (const Golden& g : kGoldens) {
      if (m.name == g.name) want = &g;
    }
    if (want == nullptr) {
      ADD_FAILURE() << "no golden row, measured " << literal(m);
      continue;
    }
    ++checked;
    EXPECT_EQ(bits(m.value), bits(want->value)) << "measured " << literal(m);
  }
  EXPECT_EQ(checked, std::size(kGoldens));
}

}  // namespace
