// perfbench/common.hpp
//
// Shared plumbing of the expmk benchmark binary: the run options, the
// in-memory span recorder of the traced run, the per-phase measurements
// every workload returns, and the statistics the end-to-end metrics are
// derived from. See perfbench/README.md for the metric definitions.

#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "exp/evaluator.hpp"

namespace perfbench {

namespace exp = expmk::exp;
namespace scenario = expmk::scenario;

/// Monotonic nanoseconds (steady_clock).
[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Process user + system CPU seconds (all threads).
[[nodiscard]] double process_cpu_seconds();

/// Peak resident set size of the process in MiB.
[[nodiscard]] double peak_rss_mib();

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  /// Self-check hook: perturb one reference value by one ulp so the
  /// output check must report a failure.
  bool corrupt_reference = false;
  std::string trace_out;  ///< Chrome trace-event file of the traced run
  std::string git_sha = "unknown";
};

/// Set-up repetitions per run; setup_s is their median.
inline constexpr int kSetupRepeats = 5;

// ------------------------------------------------------------- tracing

/// In-memory span recorder for the traced run. Spans nest by scope on
/// the recording thread; each carries its parent and the op id it
/// belongs to. Nothing is written until the run ends. When off, a
/// Scope costs one branch.
class Tracer {
 public:
  struct Span {
    const char* name;
    std::int64_t t0;
    std::int64_t t1;
    std::int32_t parent;  ///< index of the enclosing span, -1 for a root
    std::uint64_t op;
  };

  explicit Tracer(bool on = false) : on_(on) {
    if (on_) spans_.reserve(1u << 16);
  }

  [[nodiscard]] bool on() const noexcept { return on_; }
  void set_op(std::uint64_t op) noexcept { op_ = op; }

  /// RAII span: opened at construction, closed at destruction.
  class Scope {
   public:
    Scope(Tracer& t, const char* name) : t_(t) {
      if (t_.on_) index_ = t_.open(name);
    }
    ~Scope() {
      if (index_ >= 0) t_.close(index_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& t_;
    std::int32_t index_ = -1;
  };

  /// Records an already-measured root span (the serve client's request
  /// round trips, which overlap instead of nesting).
  void record(const char* name, std::int64_t t0, std::int64_t t1,
              std::uint64_t op);

  /// Self time (duration minus the time its children cover) in µs of
  /// every span named `name`.
  [[nodiscard]] std::vector<double> self_us(std::string_view name) const;

  [[nodiscard]] std::size_t size() const noexcept { return spans_.size(); }

  /// Writes every span as Chrome trace-event JSON. Returns false on I/O
  /// failure.
  [[nodiscard]] bool write_chrome_json(const std::string& path) const;

 private:
  std::int32_t open(const char* name);
  void close(std::int32_t index);

  bool on_;
  std::uint64_t op_ = 0;
  std::vector<Span> spans_;
  std::vector<std::int32_t> stack_;
};

/// Evaluates inside a span named `span_name`. When tracing, also
/// appends the dispatch overhead (wall time around evaluate minus the
/// result's own `seconds`, µs) to `dispatch_us`.
exp::EvalResult traced_evaluate(Tracer& tracer, const char* span_name,
                                const exp::Evaluator& evaluator,
                                const scenario::Scenario& sc,
                                const exp::EvalOptions& options,
                                std::vector<double>& dispatch_us);

// --------------------------------------------------- reference host speed

/// Seconds one run of the reference kernel takes on the reference host:
/// the kernel's typical time on the 4-vCPU Xeon VM the benchmark was
/// tuned on.
inline constexpr double kReferenceKernelS = 0.003;

/// Runs the reference kernel once and returns its wall seconds. The kernel
/// is a frozen Monte-Carlo longest-path sweep over a fixed 512-task DAG —
/// the same mix of loads, branches and floating-point maxima as the
/// program's hot loops, and cache-resident like them — written here, so no
/// change to the program moves it. It tracks the host's momentary speed
/// for this kind of code, which a plain ALU spin does not.
[[nodiscard]] double reference_kernel_seconds();

/// d log(op time) / d log(reference kernel time): how strongly the
/// workloads' time follows the kernel's. Fitted over ten 30 s runs per
/// workload, the run-to-run spread was smallest at 0.5-0.8 for
/// paper_grid, 0.6-1.0 for whatif_scale and 0.8-1.0 for serve_mixed;
/// 0.6 serves all three. (Regressions over single windows read lower,
/// 0.2-0.6, because one window's kernel time is a noisy estimate of the
/// host's speed.)
inline constexpr double kElasticity = 0.6;

/// The factor that takes a time measured between two kernel runs of
/// `k0` and `k1` seconds to reference host speed:
/// `(kReferenceKernelS / mean(k0, k1)) ^ kElasticity`.
[[nodiscard]] double speed_scale(double k0, double k1);

// ------------------------------------------------------- measurements

/// One timed closed-loop phase of a workload. The raw fields are as
/// measured; the `ref_` fields are the same timings at reference host
/// speed (see SpeedWindows), and the end-to-end metrics come from them.
struct PhaseResult {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::uint64_t ops = 0;     ///< ops attempted
  std::uint64_t failed = 0;  ///< ops that errored or failed a check
  /// Latencies of the ops the latency metrics cover (µs).
  std::vector<double> latency_us;
  double ref_wall_s = 0.0;
  double ref_cpu_s = 0.0;
  std::vector<double> ref_latency_us;
  /// Every reference-kernel time of the phase (s).
  std::vector<double> kernel_s;
};

/// Cuts a timed phase into windows, each bracketed by a run of the
/// reference kernel, and rescales each window's wall time, CPU time and
/// op latencies by speed_scale() of the two kernel times around it. The
/// host's vCPUs share physical cores with other tenants, so its speed for
/// this code swings by tens of percent over seconds to minutes; the
/// kernel slows with it, and the rescaled figures much less. Kernel time
/// falls between windows: it is in no op's latency, wall time or CPU time.
class SpeedWindows {
 public:
  explicit SpeedWindows(PhaseResult& out) : out_(out) {}

  /// Starts a window (the first call runs the kernel once more first).
  void open();
  /// Ends the window: every latency appended to `out.latency_us` since
  /// open() is rescaled into `out.ref_latency_us`.
  void close();

 private:
  PhaseResult& out_;
  double last_kernel_s_ = 0.0;
  double cpu0_ = 0.0;
  std::int64_t t0_ = 0;
  std::size_t first_latency_ = 0;
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};
using Metrics = std::vector<Metric>;

/// The benchmark's view of one workload. setup() is called
/// kSetupRepeats times, each rebuilding every input from scratch; run()
/// drives the closed loop for `seconds` and applies the output checks;
/// layers() reports the per-layer metrics of the traced phase.
class Workload {
 public:
  virtual ~Workload() = default;
  virtual void setup() = 0;
  virtual PhaseResult run(double seconds, Tracer& tracer) = 0;
  virtual void layers(const Tracer& tracer, Metrics& out) = 0;
};

// ----------------------------------------------------------- statistics

[[nodiscard]] double median(std::vector<double> v);

/// Samples the tail percentile must leave beyond it. One host stall holds
/// up a few dozen serve requests at once; with only 10 beyond, such a
/// stall set serve_mixed's p99.9 to 466 ms against 69 ms in the runs
/// around it.
inline constexpr std::size_t kTailSamplesBeyond = 100;

/// The highest of p90 / p99 / p99.9 with at least kTailSamplesBeyond
/// samples beyond it; p90 when none has but p90 has 10; else the maximum.
struct Tail {
  double value = 0.0;
  const char* label = "max";
  std::size_t beyond = 0;
};
[[nodiscard]] Tail tail_latency(std::vector<double> latency_us);

/// Bitwise equality of two doubles (NaN == NaN with the same payload).
[[nodiscard]] inline bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

/// Bitwise equality of the numeric surface of two results.
[[nodiscard]] bool same_result(const exp::EvalResult& a,
                               const exp::EvalResult& b);

/// The value one ulp above `x` (self-check corruption).
[[nodiscard]] double next_up(double x);

/// A supported, finite answer.
[[nodiscard]] bool sane(const exp::EvalResult& r);

/// Deterministic 64-bit mixer for deriving per-op inputs from the seed.
[[nodiscard]] std::uint64_t mix(std::uint64_t a, std::uint64_t b);

/// Uniform double in [0, 1) from a mixed value.
[[nodiscard]] inline double unit(std::uint64_t x) {
  return static_cast<double>(x >> 11) * 0x1.0p-53;
}

// ---------------------------------------------------------- factories

std::unique_ptr<Workload> make_paper_grid(const Options& opt);
std::unique_ptr<Workload> make_whatif_scale(const Options& opt);
std::unique_ptr<Workload> make_serve_mixed(const Options& opt);

}  // namespace perfbench
