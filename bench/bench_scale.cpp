// bench/bench_scale.cpp
//
// Million-task scale pins for the hierarchical-evaluation PR. Four
// measurements on the repetitive tiled fork-join kernel
// (gen::tiled_fork_join — the bulk-construction generator):
//
//   scale           build + compile + fo + sp.hier wall time AND resident
//                   set at 10^4 / 10^5 / 10^6 tasks. The RSS column is the
//                   acceptance pin: hierarchical evaluation must hold a
//                   million-task scenario without memory blow-up.
//   level_parallel  so serial (threads=1) vs 8 workers at 2*10^4 tasks —
//                   the pair-sweep fan-out speedup (the JSON op keeps its
//                   baseline name).
//   memo            cold vs warm build_module_distributions on a DAG of
//                   structurally identical modules — the memoization win.
//   patch           one-task Scenario::patch vs a fresh compile at 10^5
//                   tasks — the incremental-scenario win.
//
// Emits BENCH_scale.json; bench/baselines/scale_v1/ holds the gate
// compare_bench.py reads in CI (rss_bytes is compared like a timing
// metric — a silent memory regression fails the lane like a slowdown).
//
//   ./bench_scale [--quick]     (--quick stops at 10^5 tasks, for CI)

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "exp/evaluator.hpp"
#include "exp/hier.hpp"
#include "gen/random_dags.hpp"
#include "scenario/scenario.hpp"
#include "util/timer.hpp"

namespace {

using namespace expmk;

double checksum_guard = 0.0;

/// Current resident set in bytes (/proc/self/statm; Linux). Falls back to
/// the ru_maxrss high-water mark when statm is unavailable.
std::size_t rss_bytes_now() {
  if (std::FILE* f = std::fopen("/proc/self/statm", "r")) {
    unsigned long size_pages = 0, resident_pages = 0;
    const int got = std::fscanf(f, "%lu %lu", &size_pages, &resident_pages);
    std::fclose(f);
    if (got == 2) {
      return static_cast<std::size_t>(resident_pages) * 4096u;
    }
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<std::size_t>(ru.ru_maxrss) * 1024u;  // KiB on Linux
}

/// tiled_fork_join shape with ~`target` tasks: chains of 10, stage width
/// 32 -> 322 tasks per stage.
graph::Dag scale_dag(std::size_t target) {
  const int width = 32, chain_len = 10;
  const int per_stage = width * chain_len + 2;
  const int stages =
      std::max(1, static_cast<int>(target / static_cast<std::size_t>(per_stage)));
  // lo == hi: identical chains, so the module memo carries the build.
  return gen::tiled_fork_join(stages, width, chain_len, 7,
                              {.lo = 2.0, .hi = 2.0});
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick =
      argc > 1 && std::strcmp(argv[1], "--quick") == 0;

  std::vector<std::size_t> sizes = {10'000, 100'000};
  if (!quick) sizes.push_back(1'000'000);

  const auto& reg = exp::EvaluatorRegistry::builtin();
  std::vector<bench::JsonWriter> rows;

  // ---- scale: build/compile/eval time + RSS per size ------------------
  std::printf("bench_scale%s: tiled fork-join kernel\n",
              quick ? " (--quick)" : "");
  for (const std::size_t n : sizes) {
    exp::hier::memo_clear();
    const util::Timer build_t;
    const auto g = scale_dag(n);
    const double build_us = build_t.seconds() * 1e6;

    const util::Timer compile_t;
    const auto sc = scenario::Scenario::calibrated(
        g, 0.01, core::RetryModel::TwoState);
    const double compile_us = compile_t.seconds() * 1e6;

    exp::EvalOptions opt;
    const util::Timer fo_t;
    const auto fo = reg.find("fo")->evaluate(sc, opt);
    const double fo_us = fo_t.seconds() * 1e6;
    checksum_guard += fo.mean;

    opt.sp_max_atoms = 128;
    const util::Timer hier_t;
    const auto hier = reg.find("sp.hier")->evaluate(sc, opt);
    const double hier_us = hier_t.seconds() * 1e6;
    checksum_guard += hier.supported ? hier.mean : 0.0;

    const std::size_t rss = rss_bytes_now();
    std::printf("  n=%8zu  build %9.0f us  compile %9.0f us  fo %9.0f us"
                "  sp.hier %9.0f us (%s)  rss %6.1f MiB\n",
                g.task_count(), build_us, compile_us, fo_us, hier_us,
                hier.supported ? "ok" : hier.note.c_str(),
                static_cast<double>(rss) / (1024.0 * 1024.0));

    bench::JsonWriter w;
    w.field("op", "scale")
        .field("tasks", g.task_count())
        .field("edges", g.edge_count())
        .field("build_us", build_us)
        .field("compile_us", compile_us)
        .field("fo_us", fo_us)
        .field("sp_hier_us", hier_us)
        .field("sp_hier_supported", hier.supported)
        .field("rss_bytes", rss)
        // RSS and cold-ramp timings wobble across allocators/runners;
        // the gate cares about order-of-magnitude blow-ups.
        .field("tol", 0.6);
    rows.push_back(std::move(w));
  }

  // ---- level_parallel: so serial vs 8 workers -------------------------
  // so's pair sweep is O(V^2), so its row runs at 2*10^4 — far above the
  // evaluator's 4096-task fan-out gate, small enough for a CI lane. (fo has
  // no parallel path: its linear sweep ran 0.3-0.5x serial when fanned
  // out.)
  {
    const struct { const char* method; std::size_t tasks; } lp_rows[] = {
        {"so", 20'000}};
    for (const auto& [method, tasks] : lp_rows) {
      const auto g = scale_dag(tasks);
      const auto sc = scenario::Scenario::calibrated(
          g, 0.01, core::RetryModel::TwoState);
      const exp::Evaluator* e = reg.find(method);
      exp::EvalOptions serial;
      serial.threads = 1;
      checksum_guard += e->evaluate(sc, serial).mean;  // warm caches
      const util::Timer st;
      checksum_guard += e->evaluate(sc, serial).mean;
      const double serial_us = st.seconds() * 1e6;

      exp::EvalOptions par;
      par.threads = 8;
      checksum_guard += e->evaluate(sc, par).mean;  // warm pool
      const util::Timer pt;
      checksum_guard += e->evaluate(sc, par).mean;
      const double parallel_us = pt.seconds() * 1e6;

      const double speedup =
          parallel_us > 0.0 ? serial_us / parallel_us : 0.0;
      std::printf("  fan-out %-3s n=%zu  serial %9.0f us  "
                  "8-workers %9.0f us  speedup %.2fx\n",
                  method, g.task_count(), serial_us, parallel_us, speedup);
      bench::JsonWriter w;
      w.field("op", "level_parallel")
          .field("method", method)
          .field("tasks", g.task_count())
          .field("serial_us", serial_us)
          .field("parallel_us", parallel_us)
          .field("speedup", speedup)
          .field("tol", 0.6);
      rows.push_back(std::move(w));
    }
  }

  // ---- memo: cold vs warm module build --------------------------------
  {
    const auto g = scale_dag(10'000);
    const auto sc = scenario::Scenario::calibrated(
        g, 0.01, core::RetryModel::TwoState);
    exp::hier::memo_clear();
    exp::Workspace ws;
    const util::Timer cold_t;
    const auto cold = exp::hier::build_module_distributions(sc, 128, ws);
    const double cold_us = cold_t.seconds() * 1e6;
    const util::Timer warm_t;
    const auto warm = exp::hier::build_module_distributions(sc, 128, ws);
    const double warm_us = warm_t.seconds() * 1e6;
    checksum_guard += static_cast<double>(cold.laws.size()) +
                      static_cast<double>(warm.stats.memo_hits);
    const double speedup = warm_us > 0.0 ? cold_us / warm_us : 0.0;
    std::printf("  memo n=%zu  cold %9.0f us (%llu hits/%llu misses)  "
                "warm %9.0f us  speedup %.1fx\n",
                sc.task_count(), cold_us,
                static_cast<unsigned long long>(cold.stats.memo_hits),
                static_cast<unsigned long long>(cold.stats.memo_misses),
                warm_us, speedup);
    bench::JsonWriter w;
    w.field("op", "memo")
        .field("tasks", sc.task_count())
        .field("cold_us", cold_us)
        .field("warm_us", warm_us)
        .field("cold_hits", cold.stats.memo_hits)
        .field("cold_misses", cold.stats.memo_misses)
        .field("speedup", speedup)
        .field("tol", 0.6);
    rows.push_back(std::move(w));
  }

  // ---- patch: one-task incremental patch vs fresh compile -------------
  {
    const auto g = scale_dag(100'000);
    const auto sc = scenario::Scenario::calibrated(
        g, 0.01, core::RetryModel::TwoState);
    const std::vector<graph::TaskId> ids = {
        static_cast<graph::TaskId>(sc.task_count() / 2)};
    const std::vector<double> nr = {2e-3};
    std::vector<double> merged(sc.task_count(),
                               sc.failure().uniform_lambda());
    merged[ids[0]] = nr[0];

    // Best-of-5 with a warm-up rep on both arms: the patch clone is pure
    // memcpy, so first-touch page faults on its fresh allocations would
    // otherwise dominate its one-digit-millisecond cost.
    constexpr int kReps = 5;
    double patch_us = 0.0, fresh_us = 0.0;
    for (int rep = -1; rep < kReps; ++rep) {
      const util::Timer patch_t;
      const auto patched = sc.patch(ids, nr);
      const double us = patch_t.seconds() * 1e6;
      if (rep >= 0) patch_us = rep == 0 ? us : std::min(patch_us, us);
      checksum_guard += patched.critical_path();
    }
    for (int rep = -1; rep < kReps; ++rep) {
      const util::Timer fresh_t;
      const auto fresh = scenario::Scenario::compile(
          g, scenario::FailureSpec::per_task(merged),
          core::RetryModel::TwoState);
      const double us = fresh_t.seconds() * 1e6;
      if (rep >= 0) fresh_us = rep == 0 ? us : std::min(fresh_us, us);
      checksum_guard += fresh.critical_path();
    }

    const double speedup = patch_us > 0.0 ? fresh_us / patch_us : 0.0;
    std::printf("  patch n=%zu  patch %9.0f us  fresh compile %9.0f us  "
                "speedup %.1fx\n",
                sc.task_count(), patch_us, fresh_us, speedup);
    bench::JsonWriter w;
    w.field("op", "patch")
        .field("tasks", sc.task_count())
        .field("patch_us", patch_us)
        .field("fresh_compile_us", fresh_us)
        .field("speedup", speedup)
        .field("tol", 0.6);
    rows.push_back(std::move(w));
  }

  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  bench::JsonWriter out;
  out.field("bench", "scale")
      .field("dag", "tiled_fork_join")
      .field("quick", quick)
      .field("peak_rss_bytes", static_cast<std::size_t>(ru.ru_maxrss) * 1024u)
      .array("rows", rows);
  out.write_file("BENCH_scale.json");
  std::printf("  wrote BENCH_scale.json (checksum %g)\n", checksum_guard);
  return 0;
}
