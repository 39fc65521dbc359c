// perfbench/main.cpp — the expmk benchmark binary.
//
//   expmk_perfbench --workload paper_grid|whatif_scale|serve_mixed
//                   --seed N --seconds S --trace 0|1
//                   [--trace-out FILE] [--git-sha SHA] [--corrupt-reference]
//
// Sets the workload up kSetupRepeats times (setup_s is the median), runs
// its closed loop for S seconds and prints every end-to-end metric, each
// timing at reference host speed (common.hpp, SpeedWindows) and as
// measured; the JSON carries the former. With
// --trace 1 the S seconds are split: an untraced half gives the
// reference end-to-end numbers, a traced half records spans around each
// layer call and reports the per-layer metrics plus the tracing overhead
// (traced minus untraced, as a share of untraced). The last line of
// stdout is one JSON object {correct, attempted, failed, metrics}; the
// exit status is 0 when every output check passed, 1 when one failed and
// 2 on a command-line error. perfbench/run.py builds this binary and is
// the command to run; see perfbench/README.md.

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include <sched.h>

#include "common.hpp"
#include "util/simd.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace perfbench;

/// Every per-layer metric a traced run prints, in report order. A layer a
/// workload does not exercise reads 0.
struct LayerSpec {
  const char* name;
  const char* unit;
};
constexpr LayerSpec kLayers[] = {
    {"scenario.compile_us", "us"},
    {"scenario.patch_us", "us"},
    {"scenario.compiles", "count"},
    {"scenario.patches", "count"},
    {"core.fo_us", "us"},
    {"core.so_us", "us"},
    {"core.bounds_us", "us"},
    {"normal.sculli_us", "us"},
    {"normal.corlca_us", "us"},
    {"normal.clark_us", "us"},
    {"spgraph.dodin_us", "us"},
    {"prob.envelope_rel_width", "frac"},
    {"mc.mc_us", "us"},
    {"mc.ns_per_task_trial", "ns"},
    {"exp.hier_sp_us", "us"},
    {"exp.hier_dodin_us", "us"},
    {"exp.hier_memo_hit_frac", "frac"},
    {"exp.hier_memo_entries", "count"},
    {"exp.dispatch_us", "us"},
    {"serve.eval_us", "us"},
    {"serve.server_overhead_us", "us"},
    {"serve.transport_us", "us"},
    {"serve.parse_us", "us"},
    {"serve.encode_us", "us"},
    {"graph.taskgraph_parse_us", "us"},
    {"scenario.content_hash_us", "us"},
    {"serve.cache_resolve_us", "us"},
    {"serve.queue_wait_us", "us"},
    {"serve.cache_hit_frac", "frac"},
    {"serve.compiles", "count"},
    {"serve.patched", "count"},
    {"serve.evictions", "count"},
    {"serve.batch_mean_size", "count"},
    {"serve.flushes", "count"},
    {"serve.shed_degraded", "count"},
    {"serve.rejected", "count"},
    {"trace.spans", "count"},
    {"trace.overhead_throughput_frac", "frac"},
    {"trace.overhead_latency_p50_frac", "frac"},
    {"trace.overhead_latency_tail_frac", "frac"},
    {"trace.overhead_cpu_frac", "frac"},
};

[[noreturn]] void usage_error(const std::string& message) {
  std::fprintf(stderr,
               "expmk_perfbench: %s\n"
               "usage: expmk_perfbench --workload paper_grid|whatif_scale|"
               "serve_mixed --seed N --seconds S --trace 0|1 "
               "[--trace-out FILE] [--git-sha SHA] [--corrupt-reference]\n",
               message.c_str());
  std::exit(2);
}

std::uint64_t parse_u64(const std::string& flag, const std::string& v) {
  if (v.empty() || v.find_first_not_of("0123456789") != std::string::npos) {
    usage_error(flag + " expects a non-negative integer, got '" + v + "'");
  }
  errno = 0;
  const unsigned long long x = std::strtoull(v.c_str(), nullptr, 10);
  if (errno == ERANGE) usage_error(flag + " is out of range: '" + v + "'");
  return x;
}

double parse_seconds(const std::string& v) {
  char* end = nullptr;
  const double x = std::strtod(v.c_str(), &end);
  if (v.empty() || end != v.c_str() + v.size() || !std::isfinite(x) ||
      x <= 0.0 || x > 3600.0) {
    usage_error("--seconds expects a number in (0, 3600], got '" + v + "'");
  }
  return x;
}

Options parse_args(int argc, char** argv) {
  Options opt;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--corrupt-reference") {
      opt.corrupt_reference = true;
      continue;
    }
    if (i + 1 >= argc) usage_error("missing value for '" + flag + "'");
    const std::string value = argv[++i];
    if (flag == "--workload") {
      if (value != "paper_grid" && value != "whatif_scale" &&
          value != "serve_mixed") {
        usage_error("unknown workload '" + value + "'");
      }
      opt.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      opt.seed = parse_u64(flag, value);
      have_seed = true;
    } else if (flag == "--seconds") {
      opt.seconds = parse_seconds(value);
      have_seconds = true;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        usage_error("--trace expects 0 or 1, got '" + value + "'");
      }
      opt.trace = value == "1";
      have_trace = true;
    } else if (flag == "--trace-out") {
      opt.trace_out = value;
    } else if (flag == "--git-sha") {
      opt.git_sha = value;
    } else {
      usage_error("unknown flag '" + flag + "'");
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    usage_error("--workload, --seed, --seconds and --trace are required");
  }
  return opt;
}

// ---------------------------------------------------------- CPU pinning

/// Restricts the calling thread, and every thread it creates later, to
/// the highest-numbered CPU it may run on; returns that CPU (-1 when the
/// mask cannot be read or set). The serving pipeline spreads over five
/// threads, and on a host whose cores come and go each hand-off between
/// them stalls on whichever core is slow at the moment: unpinned,
/// serve_mixed throughput moved 2x between consecutive runs while its CPU
/// per op moved 10%. On one CPU every workload is bound by its own work.
int pin_to_one_cpu(cpu_set_t& saved) {
  if (sched_getaffinity(0, sizeof saved, &saved) != 0) return -1;
  int cpu = -1;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &saved)) cpu = c;
  }
  if (cpu < 0) return -1;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  return sched_setaffinity(0, sizeof one, &one) == 0 ? cpu : -1;
}

// ---------------------------------------------------------- provenance

/// Effective cores: the same calibrated spin run alone and then on every
/// hardware thread at once; nproc * t_alone / t_together, median of 3.
/// `ns_per_step` receives the single-thread spin speed, the host's
/// single-core speed at the time of the run.
double effective_cores(unsigned nproc, double& ns_per_step) {
  const auto spin = [](std::uint64_t iterations) {
    std::uint64_t x = 0x2545F4914F6CDD1DULL;
    for (std::uint64_t i = 0; i < iterations; ++i) {
      x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    }
    return x;
  };
  std::uint64_t iterations = 1u << 16;
  double alone = 0.0;
  std::uint64_t sink = 0;
  for (;;) {  // calibrate to ~20 ms of single-thread work
    const std::int64_t t0 = now_ns();
    sink ^= spin(iterations);
    alone = static_cast<double>(now_ns() - t0) * 1e-9;
    if (alone >= 0.02) break;
    iterations *= 2;
  }
  std::vector<double> ratios, steps;
  for (int rep = 0; rep < 3; ++rep) {
    const std::int64_t t0 = now_ns();
    sink ^= spin(iterations);
    const double single = static_cast<double>(now_ns() - t0) * 1e-9;
    steps.push_back(single * 1e9 / static_cast<double>(iterations));
    std::vector<std::thread> threads;
    std::vector<std::uint64_t> sinks(nproc, 0);
    const std::int64_t t1 = now_ns();
    for (unsigned t = 0; t < nproc; ++t) {
      threads.emplace_back([&, t] { sinks[t] = spin(iterations); });
    }
    for (std::thread& t : threads) t.join();
    const double together = static_cast<double>(now_ns() - t1) * 1e-9;
    for (const std::uint64_t s : sinks) sink ^= s;
    ratios.push_back(static_cast<double>(nproc) * single / together);
  }
  if (sink == 42) std::fprintf(stderr, " ");  // keep the spin observable
  ns_per_step = median(steps);
  return std::min(median(ratios), static_cast<double>(nproc));
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

// -------------------------------------------------------------- output

std::string number_json(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

/// The end-to-end metrics of a phase: at reference host speed (the
/// reported ones), or as measured.
Metrics end_to_end(const PhaseResult& p, double setup_s, bool at_reference,
                   Tail* tail_out) {
  const double ops = static_cast<double>(std::max<std::uint64_t>(p.ops, 1));
  const std::vector<double>& latency =
      at_reference ? p.ref_latency_us : p.latency_us;
  const Tail tail = tail_latency(latency);
  if (tail_out != nullptr) *tail_out = tail;
  return {
      {"throughput_ops_s",
       static_cast<double>(p.ops) / (at_reference ? p.ref_wall_s : p.wall_s),
       "1/s"},
      {"latency_p50_us", median(latency), "us"},
      {"latency_tail_us", tail.value, "us"},
      {"cpu_us_per_op", (at_reference ? p.ref_cpu_s : p.cpu_s) * 1e6 / ops,
       "us"},
      {"ok_frac", static_cast<double>(p.ops - p.failed) / ops, "frac"},
      {"setup_s", setup_s, "s"},
      {"peak_rss_mib", peak_rss_mib(), "MiB"},
  };
}

double value_of(const Metrics& m, std::string_view name) {
  for (const Metric& x : m) {
    if (x.name == name) return x.value;
  }
  return NAN;
}

double relative_change(double traced, double untraced) {
  return untraced != 0.0 ? (traced - untraced) / untraced : 0.0;
}

int run(const Options& opt) {
  cpu_set_t host_cpus;
  const int pinned_cpu = pin_to_one_cpu(host_cpus);
  std::unique_ptr<Workload> workload =
      opt.workload == "paper_grid"     ? make_paper_grid(opt)
      : opt.workload == "whatif_scale" ? make_whatif_scale(opt)
                                       : make_serve_mixed(opt);

  // Each set-up is bracketed by the reference kernel like a timed window.
  std::vector<double> setup_times, ref_setup_times;
  double kernel_s = reference_kernel_seconds();
  for (int i = 0; i < kSetupRepeats; ++i) {
    const std::int64_t t0 = now_ns();
    workload->setup();
    const double t = static_cast<double>(now_ns() - t0) * 1e-9;
    const double next_kernel_s = reference_kernel_seconds();
    setup_times.push_back(t);
    ref_setup_times.push_back(t * speed_scale(kernel_s, next_kernel_s));
    kernel_s = next_kernel_s;
  }
  const double setup_s = median(ref_setup_times);

  Tracer off(false);
  const double untraced_seconds = opt.trace ? opt.seconds / 2 : opt.seconds;
  const PhaseResult untraced = workload->run(untraced_seconds, off);
  Tail tail;
  const Metrics e2e = end_to_end(untraced, setup_s, true, &tail);
  const Metrics measured = end_to_end(untraced, median(setup_times), false,
                                      nullptr);
  std::uint64_t attempted = untraced.ops;
  std::uint64_t failed = untraced.failed;

  Metrics reported;
  if (opt.trace) {
    Tracer on(true);
    const PhaseResult traced = workload->run(opt.seconds / 2, on);
    attempted += traced.ops;
    failed += traced.failed;
    Metrics layers;
    workload->layers(on, layers);
    const Metrics traced_e2e = end_to_end(traced, setup_s, true, nullptr);
    layers.push_back({"trace.spans", static_cast<double>(on.size()), "count"});
    const auto overhead = [&](const char* layer, const char* metric) {
      layers.push_back({layer,
                        relative_change(value_of(traced_e2e, metric),
                                        value_of(e2e, metric)),
                        "frac"});
    };
    overhead("trace.overhead_throughput_frac", "throughput_ops_s");
    overhead("trace.overhead_latency_p50_frac", "latency_p50_us");
    overhead("trace.overhead_latency_tail_frac", "latency_tail_us");
    overhead("trace.overhead_cpu_frac", "cpu_us_per_op");
    for (const LayerSpec& spec : kLayers) {
      const double v = value_of(layers, spec.name);
      reported.push_back({spec.name, std::isnan(v) ? 0.0 : v, spec.unit});
    }
    if (!opt.trace_out.empty() && !on.write_chrome_json(opt.trace_out)) {
      std::fprintf(stderr, "expmk_perfbench: cannot write %s\n",
                   opt.trace_out.c_str());
    }
  } else {
    reported = e2e;
  }

  if (pinned_cpu >= 0) sched_setaffinity(0, sizeof host_cpus, &host_cpus);
  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  double spin_ns = 0.0;
  const double cores = effective_cores(nproc, spin_ns);
  const bool correct = failed == 0;
  const auto [kernel_min, kernel_max] =
      untraced.kernel_s.empty()
          ? std::pair{0.0, 0.0}
          : std::pair{*std::min_element(untraced.kernel_s.begin(),
                                        untraced.kernel_s.end()),
                      *std::max_element(untraced.kernel_s.begin(),
                                        untraced.kernel_s.end())};

  // Human-readable report.
  std::printf("perfbench %s  seed=%llu  seconds=%g  trace=%d\n",
              opt.workload.c_str(),
              static_cast<unsigned long long>(opt.seed), opt.seconds,
              opt.trace ? 1 : 0);
  std::printf("  %-34s %16s      %16s\n", "", "at reference speed",
              "as measured");
  for (std::size_t i = 0; i < e2e.size(); ++i) {
    const Metric& m = e2e[i];
    std::printf("  %-34s %16.6g %-5s %16.6g", m.name.c_str(), m.value,
                m.unit.c_str(), measured[i].value);
    if (m.name == "latency_tail_us") {
      std::printf("  (%s, %zu of %zu samples beyond)", tail.label, tail.beyond,
                  untraced.latency_us.size());
    }
    std::printf("\n");
  }
  if (opt.trace) {
    for (const Metric& m : reported) {
      std::printf("  %-34s %16.6g %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
  }
  std::printf("  checks: %llu of %llu ops failed\n",
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted));
  std::printf(
      "{\"provenance\": {\"workload\": \"%s\", \"seed\": %llu, "
      "\"nproc\": %u, \"effective_cores\": %.3f, \"spin_ns_per_step\": %.4f, "
      "\"reference_kernel_ms\": {\"p50\": %.4f, \"min\": %.4f, \"max\": %.4f}, "
      "\"pinned_cpu\": %d, "
      "\"simd\": \"%s\", "
      "\"compiler\": \"%s\", \"build_type\": \"%s\", \"git_sha\": \"%s\", "
      "\"tail_percentile\": \"%s\", \"tail_samples_beyond\": %zu, "
      "\"latency_samples\": %zu}}\n",
      opt.workload.c_str(), static_cast<unsigned long long>(opt.seed), nproc,
      cores, spin_ns, median(untraced.kernel_s) * 1e3, kernel_min * 1e3,
      kernel_max * 1e3, pinned_cpu,
      expmk::util::simd::name(expmk::util::simd::active()),
      escape(compiler()).c_str(), PERFBENCH_BUILD_TYPE,
      escape(opt.git_sha).c_str(), tail.label, tail.beyond,
      untraced.latency_us.size());

  std::string metrics;
  for (const Metric& m : reported) {
    if (!metrics.empty()) metrics += ", ";
    metrics += "\"" + m.name + "\": {\"value\": " + number_json(m.value) +
               ", \"unit\": \"" + m.unit + "\"}";
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      correct ? "true" : "false", static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(failed), metrics.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse_args(argc, argv);
  try {
    return run(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "expmk_perfbench: %s\n", e.what());
    return 3;
  }
}
