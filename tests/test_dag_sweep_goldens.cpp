// tests/test_dag_sweep_goldens.cpp
//
// Bitwise goldens for the longest-path sweeps outside the Monte-Carlo
// engine:
//
//  * the Normal family (sculli, corlca, clark): makespan mean and
//    variance under both retry models;
//  * core::makespan_bounds: the Jensen lower bound and the level upper
//    bound, serial and with workers = 2, under both retry models (the
//    Jensen bound has a separate Geometric branch);
//  * core::failure_aware_bottom_levels, sched::priorities (both kinds)
//    and core::slacks: the whole per-task vector;
//  * the enumeration oracles: exact_two_state, the atom list of
//    exact_two_state_distribution, and exact_geometric.
//
// The non-enumerating methods run on LU, QR and Cholesky at k = 6 plus
// LU at k = 10. Those graphs have 56 to 385 tasks, far past the
// enumeration limit, so the oracles run on the k = 3 factorizations
// (10 to 14 tasks); exact_geometric truncates at three executions, except
// on LU where two keep the 3^14-state enumeration out of the suite (at two
// executions the truncated model is the 2-state one, and the pin equals
// exact_two_state's). Every cell is pinned with the uniform calibrated rate
// and with per-task rates.
//
// Scalars are recorded as hex-float literals. Per-task vectors and atom
// lists are recorded as their length plus an FNV-1a hash over the bit
// pattern of every entry, so a one-ulp drift anywhere in a vector fails
// here. On a mismatch the test prints the measured row in table syntax.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "core/bottom_levels.hpp"
#include "core/bounds.hpp"
#include "core/criticality.hpp"
#include "core/exact.hpp"
#include "exp/workspace.hpp"
#include "gen/cholesky.hpp"
#include "gen/lu.hpp"
#include "gen/qr.hpp"
#include "normal/clark_full.hpp"
#include "normal/corlca.hpp"
#include "normal/sculli.hpp"
#include "scenario/scenario.hpp"
#include "sched/priorities.hpp"

namespace {

using namespace expmk;

constexpr auto kTwoState = core::RetryModel::TwoState;
constexpr auto kGeometric = core::RetryModel::Geometric;

struct Value {
  std::string name;
  double value;
};

struct Hash {
  std::string name;
  std::size_t size;
  std::uint64_t hash;
};

struct GoldenValue {
  const char* name;
  double value;
};

struct GoldenHash {
  const char* name;
  std::size_t size;
  std::uint64_t hash;
};

std::uint64_t bits(double x) {
  std::uint64_t u;
  std::memcpy(&u, &x, sizeof u);
  return u;
}

std::uint64_t fnv(std::uint64_t h, double x) {
  return (h ^ bits(x)) * 0x100000001b3ULL;
}

constexpr std::uint64_t kFnvSeed = 0xcbf29ce484222325ULL;

template <class T>
Hash hash_of(std::string name, const std::vector<T>& v) {
  std::uint64_t h = kFnvSeed;
  for (const T x : v) h = fnv(h, static_cast<double>(x));
  return {std::move(name), v.size(), h};
}

Hash hash_of(std::string name, const prob::DiscreteDistribution& d) {
  std::uint64_t h = kFnvSeed;
  for (const prob::Atom& a : d.atoms()) h = fnv(fnv(h, a.value), a.prob);
  return {std::move(name), d.atoms().size(), h};
}

std::string literal(const Value& m) {
  char buf[256];
  std::snprintf(buf, sizeof buf, "{\"%s\", %a},", m.name.c_str(), m.value);
  return buf;
}

std::string literal(const Hash& m) {
  char buf[256];
  std::snprintf(buf, sizeof buf, "{\"%s\", %zu, 0x%016llxULL},",
                m.name.c_str(), m.size,
                static_cast<unsigned long long>(m.hash));
  return buf;
}

const char* retry_name(core::RetryModel retry) {
  return retry == kTwoState ? "two" : "geo";
}

/// Uniform calibrated rate, or per-task rates cycling through
/// {0.5, 1, 1.5, 2} times it.
scenario::Scenario make_scenario(const graph::Dag& g, bool per_task,
                                 core::RetryModel retry) {
  const double lambda = core::calibrate(g, 0.01).lambda;
  if (!per_task) {
    return scenario::Scenario::compile(
        g, scenario::FailureSpec::uniform(lambda), retry);
  }
  std::vector<double> rates(g.task_count());
  for (std::size_t i = 0; i < rates.size(); ++i) {
    rates[i] = lambda * 0.5 * static_cast<double>(1 + i % 4);
  }
  return scenario::Scenario::compile(
      g, scenario::FailureSpec::per_task(std::move(rates)), retry);
}

struct Measured {
  std::vector<Value> values;
  std::vector<Hash> hashes;
};

Measured measure_all() {
  Measured out;
  const auto put = [&](std::string name, double v) {
    out.values.push_back({std::move(name), v});
  };
  exp::Workspace ws;

  struct Graph {
    const char* name;
    graph::Dag dag;
  };
  const Graph sweeps[] = {{"lu6", gen::lu_dag(6)},
                          {"qr6", gen::qr_dag(6)},
                          {"chol6", gen::cholesky_dag(6)},
                          {"lu10", gen::lu_dag(10)}};
  for (const Graph& g : sweeps) {
    out.hashes.push_back(
        hash_of(std::string("slacks.") + g.name, core::slacks(g.dag)));
    for (const bool per_task : {false, true}) {
      const std::string cell =
          std::string(g.name) + (per_task ? ".het" : ".uni");
      for (const core::RetryModel retry : {kTwoState, kGeometric}) {
        const auto sc = make_scenario(g.dag, per_task, retry);
        const std::string key = cell + "." + retry_name(retry);
        const normal::NormalEstimate s = normal::sculli(sc, ws);
        put("sculli." + key + ".mean", s.makespan.mean);
        put("sculli." + key + ".var", s.makespan.var);
        const normal::NormalEstimate c = normal::corlca(sc, ws);
        put("corlca." + key + ".mean", c.makespan.mean);
        put("corlca." + key + ".var", c.makespan.var);
        const normal::NormalEstimate f = normal::clark_full(sc, ws);
        put("clark." + key + ".mean", f.makespan.mean);
        put("clark." + key + ".var", f.makespan.var);
        const core::MakespanBounds b = core::makespan_bounds(sc, ws);
        put("bounds." + key + ".lower", b.jensen_lower);
        put("bounds." + key + ".upper", b.level_upper);
        const core::MakespanBounds b2 = core::makespan_bounds(sc, ws, 2);
        put("bounds.w2." + key + ".lower", b2.jensen_lower);
        put("bounds.w2." + key + ".upper", b2.level_upper);
      }
      const auto sc = make_scenario(g.dag, per_task, kTwoState);
      out.hashes.push_back(hash_of("fabl." + cell,
                                   core::failure_aware_bottom_levels(sc)));
      out.hashes.push_back(hash_of(
          "prio.bl." + cell,
          sched::priorities(sc, sched::PriorityKind::BottomLevel)));
      out.hashes.push_back(hash_of(
          "prio.fabl." + cell,
          sched::priorities(sc, sched::PriorityKind::FailureAwareBottomLevel)));
    }
  }

  struct Small {
    const char* name;
    graph::Dag dag;
    int max_executions;
  };
  const Small oracles[] = {{"lu3", gen::lu_dag(3), 2},
                           {"qr3", gen::qr_dag(3), 3},
                           {"chol3", gen::cholesky_dag(3), 3}};
  for (const Small& g : oracles) {
    for (const bool per_task : {false, true}) {
      const std::string cell =
          std::string(g.name) + (per_task ? ".het" : ".uni");
      const auto two = make_scenario(g.dag, per_task, kTwoState);
      put("exact." + cell + ".mean", core::exact_two_state(two, ws));
      out.hashes.push_back(hash_of("exact.dist." + cell,
                                   core::exact_two_state_distribution(two)));
      const auto geo = make_scenario(g.dag, per_task, kGeometric);
      put("exact.geo." + cell + ".mean",
          core::exact_geometric(geo, g.max_executions, ws));
    }
  }
  return out;
}

const GoldenValue kValues[] = {
    {"sculli.lu6.uni.two.mean", 0x1.19ff443ea6cb8p+1},
    {"sculli.lu6.uni.two.var", 0x1.87abe572d23c7p-10},
    {"corlca.lu6.uni.two.mean", 0x1.12232801fab4fp+1},
    {"corlca.lu6.uni.two.var", 0x1.7dcf181eb51e4p-9},
    {"clark.lu6.uni.two.mean", 0x1.12236ee1226fdp+1},
    {"clark.lu6.uni.two.var", 0x1.7dcbf906b81e4p-9},
    {"bounds.lu6.uni.two.lower", 0x1.0fe7ce3401cap+1},
    {"bounds.lu6.uni.two.upper", 0x1.1e99ec1cc14f2p+1},
    {"bounds.w2.lu6.uni.two.lower", 0x1.0fe7ce3401cap+1},
    {"bounds.w2.lu6.uni.two.upper", 0x1.1e99ec1cc14f2p+1},
    {"sculli.lu6.uni.geo.mean", 0x1.1a300424a2252p+1},
    {"sculli.lu6.uni.geo.var", 0x1.943baf20b4679p-10},
    {"corlca.lu6.uni.geo.mean", 0x1.12301537cc7a2p+1},
    {"corlca.lu6.uni.geo.var", 0x1.8a912ecf4b33dp-9},
    {"clark.lu6.uni.geo.mean", 0x1.123074734f407p+1},
    {"clark.lu6.uni.geo.var", 0x1.8a8cf5c1d133dp-9},
    {"bounds.lu6.uni.geo.lower", 0x1.0fe7ce3401cap+1},
    {"bounds.lu6.uni.geo.upper", 0x1.1e99ec1cc14f2p+1},
    {"bounds.w2.lu6.uni.geo.lower", 0x1.0fe7ce3401cap+1},
    {"bounds.w2.lu6.uni.geo.upper", 0x1.1e99ec1cc14f2p+1},
    {"sculli.lu6.het.two.mean", 0x1.1afaf67bb7479p+1},
    {"sculli.lu6.het.two.var", 0x1.bc11dfd60d7d1p-10},
    {"corlca.lu6.het.two.mean", 0x1.12a3773383d57p+1},
    {"corlca.lu6.het.two.var", 0x1.b3ab516f37be9p-9},
    {"clark.lu6.het.two.mean", 0x1.12a59e1354bd9p+1},
    {"clark.lu6.het.two.var", 0x1.b39a0cd3b3fe9p-9},
    {"bounds.lu6.het.two.lower", 0x1.1026d4d6f9f85p+1},
    {"bounds.lu6.het.two.upper", 0x1.2236363bd4ec1p+1},
    {"bounds.w2.lu6.het.two.lower", 0x1.1026d4d6f9f85p+1},
    {"bounds.w2.lu6.het.two.upper", 0x1.2236363bd4ec1p+1},
    {"sculli.lu6.het.geo.mean", 0x1.1b48f7e6ceeffp+1},
    {"sculli.lu6.het.geo.var", 0x1.cdfe278cae96fp-10},
    {"corlca.lu6.het.geo.mean", 0x1.12b638f8680f3p+1},
    {"corlca.lu6.het.geo.var", 0x1.c80c58a43a8b7p-9},
    {"clark.lu6.het.geo.mean", 0x1.12b9405349ce2p+1},
    {"clark.lu6.het.geo.var", 0x1.c7f31207290b7p-9},
    {"bounds.lu6.het.geo.lower", 0x1.1026d4d6f9f85p+1},
    {"bounds.lu6.het.geo.upper", 0x1.2236363bd4ec1p+1},
    {"bounds.w2.lu6.het.geo.lower", 0x1.1026d4d6f9f85p+1},
    {"bounds.w2.lu6.het.geo.upper", 0x1.2236363bd4ec1p+1},
    {"sculli.qr6.uni.two.mean", 0x1.fd98d8b3f621cp+1},
    {"sculli.qr6.uni.two.var", 0x1.5b6e91aef3a38p-8},
    {"corlca.qr6.uni.two.mean", 0x1.f5ecd0580bb0cp+1},
    {"corlca.qr6.uni.two.var", 0x1.2ffe7239b311cp-7},
    {"clark.qr6.uni.two.mean", 0x1.f65ae8f8d7b9p+1},
    {"clark.qr6.uni.two.var", 0x1.2d9206291311cp-7},
    {"bounds.qr6.uni.two.lower", 0x1.e9f25b967efe4p+1},
    {"bounds.qr6.uni.two.upper", 0x1.1e6cdf25cfe13p+2},
    {"bounds.w2.qr6.uni.two.lower", 0x1.e9f25b967efe4p+1},
    {"bounds.w2.qr6.uni.two.upper", 0x1.1e6cdf25cfe13p+2},
    {"sculli.qr6.uni.geo.mean", 0x1.fe0aaaa23e035p+1},
    {"sculli.qr6.uni.geo.var", 0x1.65b235ef48dc8p-8},
    {"corlca.qr6.uni.geo.mean", 0x1.f636279781aefp+1},
    {"corlca.qr6.uni.geo.var", 0x1.3ad4fc8870ae5p-7},
    {"clark.qr6.uni.geo.mean", 0x1.f6ab1ecdaaa6fp+1},
    {"clark.qr6.uni.geo.var", 0x1.3814d6c67e2e5p-7},
    {"bounds.qr6.uni.geo.lower", 0x1.e9f25b967efe4p+1},
    {"bounds.qr6.uni.geo.upper", 0x1.1e6cdf25cfe13p+2},
    {"bounds.w2.qr6.uni.geo.lower", 0x1.e9f25b967efe4p+1},
    {"bounds.w2.qr6.uni.geo.upper", 0x1.1e6cdf25cfe13p+2},
    {"sculli.qr6.het.two.mean", 0x1.0053c9f57c4e8p+2},
    {"sculli.qr6.het.two.var", 0x1.6f65f8bc2a46p-8},
    {"corlca.qr6.het.two.mean", 0x1.f7fe76a79dfe4p+1},
    {"corlca.qr6.het.two.var", 0x1.595dd1d88ea2fp-7},
    {"clark.qr6.het.two.mean", 0x1.f8e25c1b5fc58p+1},
    {"clark.qr6.het.two.var", 0x1.536ac824f922fp-7},
    {"bounds.qr6.het.two.lower", 0x1.eb6ce6c792b7dp+1},
    {"bounds.qr6.het.two.upper", 0x1.21a83b6af4adcp+2},
    {"bounds.w2.qr6.het.two.lower", 0x1.eb6ce6c792b7dp+1},
    {"bounds.w2.qr6.het.two.upper", 0x1.21a83b6af4adcp+2},
    {"sculli.qr6.het.geo.mean", 0x1.00b25639f74dap+2},
    {"sculli.qr6.het.geo.var", 0x1.7c0ce8100b0ccp-8},
    {"corlca.qr6.het.geo.mean", 0x1.f87b932dfd47ap+1},
    {"corlca.qr6.het.geo.var", 0x1.6974060e46866p-7},
    {"clark.qr6.het.geo.mean", 0x1.f9656eecc5bd8p+1},
    {"clark.qr6.het.geo.var", 0x1.632b028780866p-7},
    {"bounds.qr6.het.geo.lower", 0x1.eb6ce6c792b7dp+1},
    {"bounds.qr6.het.geo.upper", 0x1.21a83b6af4adcp+2},
    {"bounds.w2.qr6.het.geo.lower", 0x1.eb6ce6c792b7dp+1},
    {"bounds.w2.qr6.het.geo.upper", 0x1.21a83b6af4adcp+2},
    {"sculli.chol6.uni.two.mean", 0x1.7dd531aa5808dp+0},
    {"sculli.chol6.uni.two.var", 0x1.1a234d018271ep-10},
    {"corlca.chol6.uni.two.mean", 0x1.7da02f3ed5815p+0},
    {"corlca.chol6.uni.two.var", 0x1.1e7cf0f396f1ep-10},
    {"clark.chol6.uni.two.mean", 0x1.7b83c0041afa4p+0},
    {"clark.chol6.uni.two.var", 0x1.87cf4c4f78b1ep-10},
    {"bounds.chol6.uni.two.lower", 0x1.6e17c1ff9dceap+0},
    {"bounds.chol6.uni.two.upper", 0x1.b67dcf91b29cdp+0},
    {"bounds.w2.chol6.uni.two.lower", 0x1.6e17c1ff9dceap+0},
    {"bounds.w2.chol6.uni.two.upper", 0x1.b67dcf91b29cdp+0},
    {"sculli.chol6.uni.geo.mean", 0x1.7e3c0dce502b1p+0},
    {"sculli.chol6.uni.geo.var", 0x1.23e4dbf14863ap-10},
    {"corlca.chol6.uni.geo.mean", 0x1.7e06b263c3fbfp+0},
    {"corlca.chol6.uni.geo.var", 0x1.286348938563ap-10},
    {"clark.chol6.uni.geo.mean", 0x1.7bdae7ce3cbe5p+0},
    {"clark.chol6.uni.geo.var", 0x1.96670ad670a3ap-10},
    {"bounds.chol6.uni.geo.lower", 0x1.6e17c1ff9dceap+0},
    {"bounds.chol6.uni.geo.upper", 0x1.b67dcf91b29cdp+0},
    {"bounds.w2.chol6.uni.geo.lower", 0x1.6e17c1ff9dceap+0},
    {"bounds.w2.chol6.uni.geo.upper", 0x1.b67dcf91b29cdp+0},
    {"sculli.chol6.het.two.mean", 0x1.8334ff393b60ep+0},
    {"sculli.chol6.het.two.var", 0x1.aae7e16792995p-10},
    {"corlca.chol6.het.two.mean", 0x1.7cf368b5f1502p+0},
    {"corlca.chol6.het.two.var", 0x1.6bf832e3554cbp-9},
    {"clark.chol6.het.two.mean", 0x1.7f96af00020d2p+0},
    {"clark.chol6.het.two.var", 0x1.37e7037731ccbp-9},
    {"bounds.chol6.het.two.lower", 0x1.71a069daedbp+0},
    {"bounds.chol6.het.two.upper", 0x1.bb71d5867a9dp+0},
    {"bounds.w2.chol6.het.two.lower", 0x1.71a069daedbp+0},
    {"bounds.w2.chol6.het.two.upper", 0x1.bb71d5867a9dp+0},
    {"sculli.chol6.het.geo.mean", 0x1.841e67f063d7cp+0},
    {"sculli.chol6.het.geo.var", 0x1.c7c0a6c227913p-10},
    {"corlca.chol6.het.geo.mean", 0x1.7d881e683c8f4p+0},
    {"corlca.chol6.het.geo.var", 0x1.8771ab44e1e89p-9},
    {"clark.chol6.het.geo.mean", 0x1.804e7645fb7e6p+0},
    {"clark.chol6.het.geo.var", 0x1.4e88cdbdcfe89p-9},
    {"bounds.chol6.het.geo.lower", 0x1.71a069daedbp+0},
    {"bounds.chol6.het.geo.upper", 0x1.bb71d5867a9dp+0},
    {"bounds.w2.chol6.het.geo.lower", 0x1.71a069daedbp+0},
    {"bounds.w2.chol6.het.geo.upper", 0x1.bb71d5867a9dp+0},
    {"sculli.lu10.uni.two.mean", 0x1.f1663577f417cp+1},
    {"sculli.lu10.uni.two.var", 0x1.92e91ba75dc62p-10},
    {"corlca.lu10.uni.two.mean", 0x1.e09a1afb1b42bp+1},
    {"corlca.lu10.uni.two.var", 0x1.3a56b98dcef19p-8},
    {"clark.lu10.uni.two.mean", 0x1.e09a67aa5ea1dp+1},
    {"clark.lu10.uni.two.var", 0x1.3a55182fe3719p-8},
    {"bounds.lu10.uni.two.lower", 0x1.dcbff3db89c17p+1},
    {"bounds.lu10.uni.two.upper", 0x1.0cd254e02794bp+2},
    {"bounds.w2.lu10.uni.two.lower", 0x1.dcbff3db89c17p+1},
    {"bounds.w2.lu10.uni.two.upper", 0x1.0cd254e02794bp+2},
    {"sculli.lu10.uni.geo.mean", 0x1.f1c043c2e8b9cp+1},
    {"sculli.lu10.uni.geo.var", 0x1.9e6c0d69d0935p-10},
    {"corlca.lu10.uni.geo.mean", 0x1.e0ae6f4dc6e45p+1},
    {"corlca.lu10.uni.geo.var", 0x1.44245a96b824dp-8},
    {"clark.lu10.uni.geo.mean", 0x1.e0aed5ff5b7acp+1},
    {"clark.lu10.uni.geo.var", 0x1.4422277b9624dp-8},
    {"bounds.lu10.uni.geo.lower", 0x1.dcbff3db89c17p+1},
    {"bounds.lu10.uni.geo.upper", 0x1.0cd254e02794bp+2},
    {"bounds.w2.lu10.uni.geo.lower", 0x1.dcbff3db89c17p+1},
    {"bounds.w2.lu10.uni.geo.upper", 0x1.0cd254e02794bp+2},
    {"sculli.lu10.het.two.mean", 0x1.f4a4eac3747b6p+1},
    {"sculli.lu10.het.two.var", 0x1.01deb65a749afp-9},
    {"corlca.lu10.het.two.mean", 0x1.e2280e0a9ed7ep+1},
    {"corlca.lu10.het.two.var", 0x1.8e296cca5dcd7p-8},
    {"clark.lu10.het.two.mean", 0x1.e22c84925f56cp+1},
    {"clark.lu10.het.two.var", 0x1.8e0d3e05ffcd7p-8},
    {"bounds.lu10.het.two.lower", 0x1.ddd46d681d21cp+1},
    {"bounds.lu10.het.two.upper", 0x1.12b466fe45fa4p+2},
    {"bounds.w2.lu10.het.two.lower", 0x1.ddd46d681d21cp+1},
    {"bounds.w2.lu10.het.two.upper", 0x1.12b466fe45fa4p+2},
    {"sculli.lu10.het.geo.mean", 0x1.f53e6f78744d4p+1},
    {"sculli.lu10.het.geo.var", 0x1.0e3dde3112fb1p-9},
    {"corlca.lu10.het.geo.mean", 0x1.e24b76ec2ff1ep+1},
    {"corlca.lu10.het.geo.var", 0x1.a1d9e6e4fafd8p-8},
    {"clark.lu10.het.geo.mean", 0x1.e251c3f6f64a1p+1},
    {"clark.lu10.het.geo.var", 0x1.a1b1fb5f62fd8p-8},
    {"bounds.lu10.het.geo.lower", 0x1.ddd46d681d21cp+1},
    {"bounds.lu10.het.geo.upper", 0x1.12b466fe45fa4p+2},
    {"bounds.w2.lu10.het.geo.lower", 0x1.ddd46d681d21cp+1},
    {"bounds.w2.lu10.het.geo.upper", 0x1.12b466fe45fa4p+2},
    {"exact.lu3.uni.mean", 0x1.da4af8532e20cp-1},
    {"exact.geo.lu3.uni.mean", 0x1.da4af8532e20cp-1},
    {"exact.lu3.het.mean", 0x1.dad0b3dd2366fp-1},
    {"exact.geo.lu3.het.mean", 0x1.dad0b3dd2366fp-1},
    {"exact.qr3.uni.mean", 0x1.7cf0d8f96c5p+0},
    {"exact.geo.qr3.uni.mean", 0x1.7d0cbb0c17127p+0},
    {"exact.qr3.het.mean", 0x1.7dd78226d68cp+0},
    {"exact.geo.qr3.het.mean", 0x1.7e03c8df0cd43p+0},
    {"exact.chol3.uni.mean", 0x1.2f0f8094fa319p-1},
    {"exact.geo.chol3.uni.mean", 0x1.2f2054653f137p-1},
    {"exact.chol3.het.mean", 0x1.2fdf31462652fp-1},
    {"exact.geo.chol3.het.mean", 0x1.2ff8031235d57p-1},
};

const GoldenHash kHashes[] = {
    {"slacks.lu6", 91, 0xc616ceca734d8c11ULL},
    {"fabl.lu6.uni", 91, 0x4a127094071cc812ULL},
    {"prio.bl.lu6.uni", 91, 0xf2fe54c9e20ce9a6ULL},
    {"prio.fabl.lu6.uni", 91, 0x4a127094071cc812ULL},
    {"fabl.lu6.het", 91, 0x77c5a4144f23f1a8ULL},
    {"prio.bl.lu6.het", 91, 0xf2fe54c9e20ce9a6ULL},
    {"prio.fabl.lu6.het", 91, 0x77c5a4144f23f1a8ULL},
    {"slacks.qr6", 91, 0xb3ae1a1fb7438547ULL},
    {"fabl.qr6.uni", 91, 0x2e8c3a67c06eca83ULL},
    {"prio.bl.qr6.uni", 91, 0x82c07ab9a7890512ULL},
    {"prio.fabl.qr6.uni", 91, 0x2e8c3a67c06eca83ULL},
    {"fabl.qr6.het", 91, 0x335e66b3b25b9eb2ULL},
    {"prio.bl.qr6.het", 91, 0x82c07ab9a7890512ULL},
    {"prio.fabl.qr6.het", 91, 0x335e66b3b25b9eb2ULL},
    {"slacks.chol6", 56, 0x25579607d466fd98ULL},
    {"fabl.chol6.uni", 56, 0x6b6a469d323f2c6dULL},
    {"prio.bl.chol6.uni", 56, 0x444b41f56be99916ULL},
    {"prio.fabl.chol6.uni", 56, 0x6b6a469d323f2c6dULL},
    {"fabl.chol6.het", 56, 0xd99bf32ad64dec13ULL},
    {"prio.bl.chol6.het", 56, 0x444b41f56be99916ULL},
    {"prio.fabl.chol6.het", 56, 0xd99bf32ad64dec13ULL},
    {"slacks.lu10", 385, 0x05e0410c6d60400dULL},
    {"fabl.lu10.uni", 385, 0x9057a153374e8231ULL},
    {"prio.bl.lu10.uni", 385, 0xf038b690a2f3f793ULL},
    {"prio.fabl.lu10.uni", 385, 0x9057a153374e8231ULL},
    {"fabl.lu10.het", 385, 0xccff59d0efb03f7dULL},
    {"prio.bl.lu10.het", 385, 0xf038b690a2f3f793ULL},
    {"prio.fabl.lu10.het", 385, 0xccff59d0efb03f7dULL},
    {"exact.dist.lu3.uni", 108, 0x78e8aa8d201c67bcULL},
    {"exact.dist.lu3.het", 108, 0x4a21932c6b9e7ed0ULL},
    {"exact.dist.qr3.uni", 101, 0xb4b04e43fb4ff27fULL},
    {"exact.dist.qr3.het", 101, 0x77e31f674bf4c18cULL},
    {"exact.dist.chol3.uni", 69, 0xf4c86a23608df26dULL},
    {"exact.dist.chol3.het", 69, 0x28cc7f9c11c7d436ULL},
};

TEST(DagSweepGoldens, BitIdenticalToRecordedAnswers) {
  const Measured got = measure_all();
  std::size_t checked = 0;
  for (const Value& m : got.values) {
    const GoldenValue* want = nullptr;
    for (const GoldenValue& g : kValues) {
      if (m.name == g.name) want = &g;
    }
    if (want == nullptr) {
      ADD_FAILURE() << "no golden row, measured " << literal(m);
      continue;
    }
    ++checked;
    EXPECT_EQ(bits(m.value), bits(want->value)) << "measured " << literal(m);
  }
  for (const Hash& m : got.hashes) {
    const GoldenHash* want = nullptr;
    for (const GoldenHash& g : kHashes) {
      if (m.name == g.name) want = &g;
    }
    if (want == nullptr) {
      ADD_FAILURE() << "no golden row, measured " << literal(m);
      continue;
    }
    ++checked;
    EXPECT_EQ(m.size, want->size) << "measured " << literal(m);
    EXPECT_EQ(m.hash, want->hash) << "measured " << literal(m);
  }
  EXPECT_EQ(checked, std::size(kValues) + std::size(kHashes));
}

}  // namespace
