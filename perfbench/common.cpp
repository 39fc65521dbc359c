// perfbench/common.cpp — see common.hpp.

#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>

namespace perfbench {

double process_cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// -------------------------------------------------- reference kernel

namespace {

/// The reference kernel's fixed input: 512 tasks in topological order,
/// each with up to three predecessors among the 64 tasks before it, in
/// CSR form, and a weight in [1, 2).
struct ReferenceDag {
  static constexpr std::uint32_t kTasks = 512;
  std::vector<std::uint32_t> offset, pred;
  std::vector<double> weight;

  ReferenceDag() {
    std::uint64_t s = 0x9e3779b97f4a7c15ULL;
    const auto next = [&s] {
      s ^= s << 13;
      s ^= s >> 7;
      s ^= s << 17;
      return s;
    };
    offset.push_back(0);
    for (std::uint32_t v = 0; v < kTasks; ++v) {
      const std::uint32_t window = std::min<std::uint32_t>(v, 64);
      for (std::uint32_t j = 0; j < 3 && window > 0; ++j) {
        pred.push_back(v - 1 - static_cast<std::uint32_t>(next() % window));
      }
      offset.push_back(static_cast<std::uint32_t>(pred.size()));
      weight.push_back(1.0 + unit(next()));
    }
  }
};

}  // namespace

double reference_kernel_seconds() {
  static const ReferenceDag dag;
  // 800 trials of a two-state silent-error model: each task re-runs with
  // probability 1/8.
  constexpr int kTrials = 800;
  static std::vector<double> finish(ReferenceDag::kTasks);
  std::uint64_t s = 0x2545f4914f6cdd1dULL;
  double total = 0.0;
  const std::int64_t t0 = now_ns();
  for (int trial = 0; trial < kTrials; ++trial) {
    double makespan = 0.0;
    for (std::uint32_t v = 0; v < ReferenceDag::kTasks; ++v) {
      double start = 0.0;
      for (std::uint32_t e = dag.offset[v]; e < dag.offset[v + 1]; ++e) {
        start = std::max(start, finish[dag.pred[e]]);
      }
      s ^= s << 13;
      s ^= s >> 7;
      s ^= s << 17;
      const double runs = unit(s) < 0.125 ? 2.0 : 1.0;
      finish[v] = start + runs * dag.weight[v];
      makespan = std::max(makespan, finish[v]);
    }
    total += makespan;
  }
  const double seconds = static_cast<double>(now_ns() - t0) * 1e-9;
  if (total < 0.0) std::fprintf(stderr, " ");  // keep the work observable
  return seconds;
}

double speed_scale(double k0, double k1) {
  return std::pow(2.0 * kReferenceKernelS / (k0 + k1), kElasticity);
}

void SpeedWindows::open() {
  if (last_kernel_s_ == 0.0) last_kernel_s_ = reference_kernel_seconds();
  first_latency_ = out_.latency_us.size();
  cpu0_ = process_cpu_seconds();
  t0_ = now_ns();
}

void SpeedWindows::close() {
  const double wall = static_cast<double>(now_ns() - t0_) * 1e-9;
  const double cpu = process_cpu_seconds() - cpu0_;
  const double kernel = reference_kernel_seconds();
  out_.kernel_s.push_back(kernel);
  const double scale = speed_scale(last_kernel_s_, kernel);
  last_kernel_s_ = kernel;
  out_.wall_s += wall;
  out_.cpu_s += cpu;
  out_.ref_wall_s += wall * scale;
  out_.ref_cpu_s += cpu * scale;
  for (std::size_t i = first_latency_; i < out_.latency_us.size(); ++i) {
    out_.ref_latency_us.push_back(out_.latency_us[i] * scale);
  }
}

// ------------------------------------------------------------- Tracer

std::int32_t Tracer::open(const char* name) {
  const std::int32_t parent = stack_.empty() ? -1 : stack_.back();
  const auto index = static_cast<std::int32_t>(spans_.size());
  spans_.push_back({name, now_ns(), 0, parent, op_});
  stack_.push_back(index);
  return index;
}

void Tracer::close(std::int32_t index) {
  spans_[static_cast<std::size_t>(index)].t1 = now_ns();
  stack_.pop_back();
}

void Tracer::record(const char* name, std::int64_t t0, std::int64_t t1,
                    std::uint64_t op) {
  if (on_) spans_.push_back({name, t0, t1, -1, op});
}

std::vector<double> Tracer::self_us(std::string_view name) const {
  // Children of one scope-nested parent never overlap, so the time they
  // cover is the sum of their durations.
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_ns[static_cast<std::size_t>(s.parent)] += s.t1 - s.t0;
    }
  }
  std::vector<double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (name == s.name) {
      out.push_back(static_cast<double>(s.t1 - s.t0 - child_ns[i]) * 1e-3);
    }
  }
  return out;
}

bool Tracer::write_chrome_json(const std::string& path) const {
  std::ofstream os(path);
  if (!os) return false;
  const std::int64_t base = spans_.empty() ? 0 : spans_.front().t0;
  os << "{\"traceEvents\":[";
  char buf[320];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof buf,
                  "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"op\":%llu,"
                  "\"parent\":%d}}",
                  i == 0 ? "" : ",", s.name,
                  static_cast<double>(s.t0 - base) * 1e-3,
                  static_cast<double>(s.t1 - s.t0) * 1e-3,
                  static_cast<unsigned long long>(s.op), s.parent);
    os << buf;
  }
  os << "\n]}\n";
  return static_cast<bool>(os);
}

exp::EvalResult traced_evaluate(Tracer& tracer, const char* span_name,
                                const exp::Evaluator& evaluator,
                                const scenario::Scenario& sc,
                                const exp::EvalOptions& options,
                                std::vector<double>& dispatch_us) {
  if (!tracer.on()) return evaluator.evaluate(sc, options);
  const std::int64_t t0 = now_ns();
  exp::EvalResult r;
  {
    const Tracer::Scope span(tracer, span_name);
    r = evaluator.evaluate(sc, options);
  }
  const std::int64_t t1 = now_ns();
  dispatch_us.push_back(static_cast<double>(t1 - t0) * 1e-3 - r.seconds * 1e6);
  return r;
}

// --------------------------------------------------------- statistics

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

namespace {

/// Nearest-rank quantile of an already-sorted sample.
double sorted_quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const auto n = static_cast<double>(sorted.size());
  const auto rank = static_cast<std::size_t>(std::ceil(q * n));
  return sorted[std::clamp<std::size_t>(rank, 1, sorted.size()) - 1];
}

}  // namespace

Tail tail_latency(std::vector<double> latency_us) {
  std::sort(latency_us.begin(), latency_us.end());
  const std::size_t n = latency_us.size();
  struct Level {
    double q;
    const char* label;
  };
  constexpr Level kLevels[] = {{0.999, "p99.9"}, {0.99, "p99"}, {0.9, "p90"}};
  const auto beyond = [n](double q) {
    const auto rank =
        static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
    return n - std::min(rank, n);
  };
  for (const Level& level : kLevels) {
    if (beyond(level.q) >= kTailSamplesBeyond) {
      return {sorted_quantile(latency_us, level.q), level.label,
              beyond(level.q)};
    }
  }
  if (beyond(0.9) >= 10) {
    return {sorted_quantile(latency_us, 0.9), "p90", beyond(0.9)};
  }
  return {n == 0 ? 0.0 : latency_us.back(), "max", 0};
}

bool same_result(const exp::EvalResult& a, const exp::EvalResult& b) {
  return a.supported == b.supported && same_bits(a.mean, b.mean) &&
         same_bits(a.mean_lo, b.mean_lo) && same_bits(a.mean_hi, b.mean_hi) &&
         same_bits(a.std_error, b.std_error);
}

double next_up(double x) { return std::nextafter(x, INFINITY); }

bool sane(const exp::EvalResult& r) {
  return r.supported && std::isfinite(r.mean) && std::isfinite(r.mean_lo) &&
         std::isfinite(r.mean_hi) && r.mean_lo <= r.mean &&
         r.mean <= r.mean_hi;
}

std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  // SplitMix64 finalizer over a combined state.
  std::uint64_t z = a + 0x9e3779b97f4a7c15ULL * (b + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace perfbench
