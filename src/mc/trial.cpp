#include "mc/trial.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <stdexcept>

namespace expmk::mc {

namespace {

/// Geometric slow path: at least one failure occurred (u <= 1 - p).
/// Inversion: failures F with P(F >= k) = (1-p)^k, F = floor(ln U / ln(1-p))
/// = floor(ln U * inv_log_q), capped. Clamp BEFORE the int cast: at extreme
/// lambda the inversion yields doubles far beyond int range and the cast
/// would be undefined behaviour.
EXPMK_NOALLOC inline int geometric_executions_slow(double u,
                                                   double inv_log_q) {
  const double f = std::floor(std::log(u) * inv_log_q);
  if (!(f < static_cast<double>(kMaxExecutions))) {
    return kMaxExecutions;
  }
  const int failures = f < 0.0 ? 0 : static_cast<int>(f);
  const int executions = failures + 1;
  return executions < kMaxExecutions ? executions : kMaxExecutions;
}

constexpr std::uint64_t kTwo53 = std::uint64_t{1} << 53;

/// #{m in [0, 2^53) : m 2^-53 < p} = ceil(p 2^53), clamped to [0, 2^53]:
/// a TwoState lane succeeds iff (draw >> 11) < this. p 2^53 is exact (a
/// power-of-two scaling), and for y >= 0 the truncating cast is floor(y),
/// so "bump when the floor falls short" is the exact ceiling. NaN counts
/// as 0, as `u < NaN` is false.
EXPMK_NOALLOC inline std::uint64_t count_below(double p) noexcept {
  if (!(p > 0.0)) return 0;
  if (p >= 1.0) return kTwo53;
  const double y = p * 0x1.0p53;
  const auto k = static_cast<std::uint64_t>(static_cast<std::int64_t>(y));
  return static_cast<double>(k) < y ? k + 1 : k;
}

/// #{m in [0, 2^53) : (m+1) 2^-53 <= q} = floor(q 2^53), clamped: a
/// geometric lane takes the slow path iff (draw >> 11) < this.
EXPMK_NOALLOC inline std::uint64_t count_at_most(double q) noexcept {
  if (!(q > 0.0)) return 0;
  if (q >= 1.0) return kTwo53;
  return static_cast<std::uint64_t>(static_cast<std::int64_t>(q * 0x1.0p53));
}

// Two trial lanes as GCC/Clang generic vectors: the lane loops below
// lower to packed SSE2 at the baseline ISA (four vectors per lane row)
// and remain element-wise IEEE arithmetic, so every lane computes exactly
// what sample_durations and graph::critical_path_length compute. Rows
// are read and written through memcpy, so the caller's spans need no
// vector alignment.
using Lane2 = double __attribute__((vector_size(16)));
using Bits2 = std::uint64_t __attribute__((vector_size(16)));
constexpr std::size_t kPairs = kTrialLanes / 2;
/// Draws per lane in one random tile (even: a tile is whole blocks).
constexpr std::size_t kTileDraws = 32;
constexpr std::uint64_t kOneBits = 0x3FF0000000000000ull;  // 1.0
constexpr std::uint64_t kExpUnit = std::uint64_t{1} << 52;  // 2.0 - 1.0

EXPMK_NOALLOC inline Lane2 load_lanes(const double* p) noexcept {
  Lane2 v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

EXPMK_NOALLOC inline void store_lanes(double* p, Lane2 v) noexcept {
  std::memcpy(p, &v, sizeof v);
}

/// 1 in each lane whose draw's m = draw >> 11 is below `count`, else 0.
/// m and count are < 2^54, so m - count wraps to a value with the top bit
/// set exactly when m < count: branch-free and exact.
EXPMK_NOALLOC inline Bits2 lanes_below(const std::uint64_t* draws,
                                       std::uint64_t count) noexcept {
  Bits2 x;
  std::memcpy(&x, draws, sizeof x);
  return ((x >> 11) - count) >> 63;
}

}  // namespace

EXPMK_NOALLOC std::size_t sample_durations(const scenario::Scenario& sc,
                                           prob::McRng& rng,
                                           std::span<double> durations_pos) {
  const std::size_t n = sc.task_count();
  if (durations_pos.size() != n) {
    throw std::invalid_argument(
        "sample_durations: durations_pos must have size task_count()");
  }
  const double* const w = sc.csr().weights().data();
  const double* const p = sc.p_success_csr().data();
  const double* const qf = sc.q_fail_csr().data();
  const double* const inv_log_q = sc.inv_log_q_csr().data();
  const bool two_state = sc.retry() == core::RetryModel::TwoState;

  std::size_t failed = 0;
  for (std::size_t v = 0; v < n; ++v) {
    int executions = 1;
    if (two_state) {
      executions = rng.uniform() < p[v] ? 1 : 2;
    } else {
      const double u = rng.uniform_positive();
      if (u <= qf[v]) executions = geometric_executions_slow(u, inv_log_q[v]);
    }
    if (executions > 1) ++failed;
    durations_pos[v] = w[v] * static_cast<double>(executions);
  }
  return failed;
}

EXPMK_NOALLOC LaneObservations run_trial_lanes(const scenario::Scenario& sc,
                                               std::uint64_t seed,
                                               std::uint64_t t0,
                                               std::span<double> finish) {
  constexpr std::size_t W = kTrialLanes;
  const graph::CsrDag& csr = sc.csr();
  const std::size_t n = csr.task_count();
  if (finish.size() != n * W) {
    throw std::invalid_argument(
        "run_trial_lanes: finish must have task_count() * kTrialLanes "
        "entries");
  }
  const std::span<const std::uint32_t> off = csr.pred_offsets();
  const std::span<const std::uint32_t> pred = csr.pred_index();
  const double* const w = csr.weights().data();
  const double* const p = sc.p_success_csr().data();
  const double* const qf = sc.q_fail_csr().data();
  const double* const inv_log_q = sc.inv_log_q_csr().data();
  const bool two_state = sc.retry() == core::RetryModel::TwoState;

  Lane2 best[kPairs] = {};
  Lane2 control[kPairs] = {};
  std::uint64_t tile[kTileDraws * W];
  for (std::size_t j0 = 0; j0 < n; j0 += kTileDraws) {
    const std::size_t j1 = std::min(n, j0 + kTileDraws);
    prob::McRng::fill_lanes(seed, t0, j0 / 2, (j1 - j0 + 1) / 2, tile);
    for (std::size_t v = j0; v < j1; ++v) {
      // Sample: executions per lane as a double (1.0, 2.0, ...).
      const std::uint64_t* const x = &tile[(v - j0) * W];
      Lane2 exec[kPairs];
      if (two_state) {
        // 1.0 in succeeding lanes, 2.0 in failing ones, built from the
        // exponent bits: 2.0's bit pattern is 1.0's plus 2^52.
        const std::uint64_t success = count_below(p[v]);
        for (std::size_t k = 0; k < kPairs; ++k) {
          const Bits2 ok = lanes_below(x + 2 * k, success);
          exec[k] = std::bit_cast<Lane2>((kOneBits + kExpUnit) -
                                         (ok << 52));
        }
      } else {
        const std::uint64_t slow = count_at_most(qf[v]);
        Bits2 any = {};
        for (std::size_t k = 0; k < kPairs; ++k) {
          any |= lanes_below(x + 2 * k, slow);
          exec[k] = Lane2{1.0, 1.0};
        }
        if ((any[0] | any[1]) != 0) {
          // At least one lane failed: the slow path, lane by lane.
          double ex[W];
          for (std::size_t l = 0; l < W; ++l) {
            const std::uint64_t m = x[l] >> 11;
            ex[l] = 1.0;
            if (m < slow) {
              const double u = (static_cast<double>(m) + 1.0) * 0x1.0p-53;
              ex[l] = static_cast<double>(
                  geometric_executions_slow(u, inv_log_q[v]));
            }
          }
          for (std::size_t k = 0; k < kPairs; ++k) {
            exec[k] = load_lanes(ex + 2 * k);
          }
        }
      }
      // Sweep, in graph::critical_path_length's operation order per lane:
      // start = max(0, preds), finish = start + w * executions.
      Lane2 start[kPairs] = {};
      for (std::uint32_t e = off[v]; e < off[v + 1]; ++e) {
        const double* const fu = &finish[std::size_t{pred[e]} * W];
        for (std::size_t k = 0; k < kPairs; ++k) {
          const Lane2 f = load_lanes(fu + 2 * k);
          start[k] = f > start[k] ? f : start[k];
        }
      }
      const double wv = w[v];
      double* const fv = &finish[v * W];
      for (std::size_t k = 0; k < kPairs; ++k) {
        const Lane2 duration = wv * exec[k];
        control[k] += wv * (exec[k] - 1.0);
        const Lane2 f = start[k] + duration;
        store_lanes(fv + 2 * k, f);
        best[k] = f > best[k] ? f : best[k];
      }
    }
  }
  LaneObservations obs;
  for (std::size_t k = 0; k < kPairs; ++k) {
    store_lanes(&obs.makespan[2 * k], best[k]);
    store_lanes(&obs.control[2 * k], control[k]);
  }
  return obs;
}

double control_variate_mean(const scenario::Scenario& sc) {
  // Summed in Dag id order, the order that fixes its rounding.
  const std::span<const std::uint32_t> position = sc.csr().position();
  const std::span<const double> w = sc.weights_csr();
  const std::span<const double> p_success = sc.p_success_csr();
  double mean = 0.0;
  for (const std::uint32_t pos : position) {
    const double a = w[pos];
    const double p = p_success[pos];
    if (p >= 1.0) continue;
    if (sc.retry() == core::RetryModel::TwoState) {
      mean += a * (1.0 - p);
    } else {
      // E[executions - 1] for the capped geometric: the cap's truncation
      // error is (1-p)^{cap}, negligible, but we account for it exactly:
      // E[min(F, cap)] = sum_{k=1..cap} P(F >= k) = sum (1-p)^k.
      const double q = 1.0 - p;
      double qk = q;
      double e = 0.0;
      for (int k = 1; k < kMaxExecutions; ++k) {
        e += qk;
        qk *= q;
      }
      mean += a * e;
    }
  }
  return mean;
}

}  // namespace expmk::mc
