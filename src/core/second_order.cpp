#include "core/second_order.hpp"

#include <algorithm>
#include <type_traits>

#include "graph/csr.hpp"
#include "util/thread_pool.hpp"

namespace expmk::core {

namespace {

/// Pair-sweep block width: sources processed per longest_from_block edge
/// pass. 8 lanes = one 64-byte cache line of doubles per vertex in the
/// lane matrix, and enough independent arithmetic for the compiler to
/// vectorize the inner pair loop.
constexpr std::uint32_t kSecondOrderBlock = 8;

/// Pool tasks per worker in the fan-out variant: enough for load balance,
/// few enough that per-task submission stays negligible.
constexpr std::size_t kChunksPerWorker = 4;

/// O(V) prefix sums shared by the serial and fan-out drivers: the sum L of
/// the per-task failure masses (het) or the uniform sum A, and the
/// first-order correction.
struct SoPrefix {
  double A = 0.0;              // uniform: sum a_i
  double L = 0.0;              // heterogeneous: sum l_i
  double fo_correction = 0.0;  // first-order correction for reporting
};

EXPMK_NOALLOC SoPrefix so_prefix(const graph::CsrDag& csr, bool het, double d,
                                 std::span<const double> rates_csr,
                                 std::span<const double> top,
                                 std::span<const double> bottom,
                                 std::span<double> d_single,
                                 std::span<double> l) {
  const std::size_t n = csr.task_count();
  const std::span<const double> w = csr.weights();
  SoPrefix out;
  // l_i = lambda_i a_i: the per-task first-order failure mass. L replaces
  // the uniform lambda * A everywhere in the heterogeneous expansion.
  if (het) {
    for (std::uint32_t i = 0; i < n; ++i) {
      l[i] = rates_csr[i] * w[i];
      out.L += l[i];
    }
  } else {
    for (const double a : w) out.A += a;
  }
  // d(G_i) for every i, plus the first-order correction for reporting.
  for (std::uint32_t i = 0; i < n; ++i) {
    const double thr2 = top[i] + bottom[i] + w[i];
    d_single[i] = std::max(d, thr2);
    out.fo_correction += (het ? l[i] : w[i]) * (d_single[i] - d);
  }
  return out;
}

/// The O(V) state both drivers share, leased from the caller's workspace
/// frame: levels over the renumbered positions, the single-failure
/// makespans d(G_i), the per-task failure masses l_i = lambda_i a_i (het
/// only) and the prefix sums. The uniform path keeps the uniform
/// factoring (sum a_i, scale by lambda once).
struct SoLevels {
  bool het = false;
  double lambda = 0.0;  ///< uniform rate; unused when het
  double d = 0.0;       ///< d(G)
  std::span<double> top;
  std::span<double> bottom;
  std::span<double> d_single;
  std::span<double> l;  ///< empty when uniform
  SoPrefix pre;
};

EXPMK_NOALLOC SoLevels so_levels(const scenario::Scenario& sc,
                                 exp::Workspace& ws) {
  const graph::CsrDag& csr = sc.csr();
  const std::size_t n = csr.task_count();
  SoLevels lv;
  lv.het = sc.heterogeneous();
  lv.lambda = lv.het ? 0.0 : sc.uniform_model().lambda;
  lv.top = ws.doubles(n);
  lv.bottom = ws.doubles(n);
  lv.d_single = ws.doubles(n);
  if (lv.het) lv.l = ws.doubles(n);
  // One forward, one backward pass.
  lv.d = graph::compute_levels(csr, csr.weights(), lv.top, lv.bottom);
  lv.pre = so_prefix(csr, lv.het, lv.d,
                     lv.het ? sc.rates_csr() : std::span<const double>{},
                     lv.top, lv.bottom, lv.d_single, lv.l);
  return lv;
}

/// One pair-sweep block: sum_{j>i} m_i m_j d(G_ij) for the
/// kSecondOrderBlock (or fewer, at the end) consecutive sources starting
/// at i0, each lane's partial into acc[lane]. One graph::longest_from_block
/// edge pass serves the whole block (edge traffic divided by the block
/// width), and the inner j-loop walks the vertex-major lane matrix — one
/// cache line per vertex covers every lane, and the per-lane body is
/// branch-free, independent arithmetic the compiler can vectorize across
/// lanes. Because positions are topologically renumbered, j at a later
/// position can NEVER reach i, so the forward suffix sweep covers every
/// unordered pair.
///
/// Numerics: each lane accumulates its own partial sum in the exact
/// per-source j-ascending order of the one-source-at-a-time sweep; the
/// caller then folds the partials into pair_sum in source order. That
/// re-associates the GLOBAL sum only (one fixed, documented order — part
/// of the same one-time re-baseline as the kernel layer's stable merge).
/// The unreachable-pair guard is arithmetic here: dist -inf propagates
/// through the cross term and loses the max, bit-identically to the
/// scalar `!= -inf` branch for the finite levels/weights at hand.
///
/// Blocks touch only (read-only inputs, their own dist scratch, their own
/// acc) — which is what lets the fan-out driver run them on any worker in
/// any order with bit-identical results.
EXPMK_NOALLOC void so_block(const graph::CsrDag& csr, const SoLevels& lv,
                            std::uint32_t i0, std::uint32_t nb,
                            std::span<double> dist,
                            double acc[kSecondOrderBlock]) {
  const bool het = lv.het;
  const std::span<const double> l = lv.l;
  const std::span<const double> top = lv.top;
  const std::span<const double> bottom = lv.bottom;
  const std::span<const double> d_single = lv.d_single;
  const std::size_t n = csr.task_count();
  const std::span<const double> w = csr.weights();
  longest_from_block(csr, i0, nb, w, dist);
  double m_i[kSecondOrderBlock];
  for (std::uint32_t ln = 0; ln < nb; ++ln) {
    m_i[ln] = het ? l[i0 + ln] : w[i0 + ln];
  }
  // Head: j inside the block — only lanes with source < j are live.
  const std::uint32_t head_end =
      std::min<std::uint32_t>(i0 + nb, static_cast<std::uint32_t>(n));
  for (std::uint32_t j = i0 + 1; j < head_end; ++j) {
    for (std::uint32_t ln = 0; ln < j - i0; ++ln) {
      const std::uint32_t i = i0 + ln;
      double dij = std::max(d_single[i], d_single[j]);
      const double cross =
          top[i] + dist[j * nb + ln] + w[i] + w[j] + (bottom[j] - w[j]);
      dij = std::max(dij, cross);
      acc[ln] += (m_i[ln] * (het ? l[j] : w[j])) * dij;
    }
  }
  // Tail: every lane is live; no masks, no branches. Per-lane constants
  // are gathered into dense block arrays so the lane loop is pure
  // contiguous elementwise arithmetic; the full-width case runs with a
  // compile-time lane count so it vectorizes.
  double ds_i[kSecondOrderBlock];
  double top_i[kSecondOrderBlock];
  double w_i[kSecondOrderBlock];
  for (std::uint32_t ln = 0; ln < nb; ++ln) {
    ds_i[ln] = d_single[i0 + ln];
    top_i[ln] = top[i0 + ln];
    w_i[ln] = w[i0 + ln];
  }
  auto tail_sweep = [&](auto width, std::uint32_t lanes) {
    constexpr std::uint32_t kW = decltype(width)::value;
    const std::uint32_t nl = kW != 0 ? kW : lanes;
    for (std::uint32_t j = head_end; j < n; ++j) {
      const double dsj = d_single[j];
      const double wj = w[j];
      const double tailj = bottom[j] - wj;
      const double mj = het ? l[j] : wj;
      const double* dj = &dist[j * nl];
      for (std::uint32_t ln = 0; ln < nl; ++ln) {
        const double a = ds_i[ln];
        double dij = a > dsj ? a : dsj;
        const double cross = top_i[ln] + dj[ln] + w_i[ln] + wj + tailj;
        dij = cross > dij ? cross : dij;
        acc[ln] += (m_i[ln] * mj) * dij;
      }
    }
  };
  if (nb == kSecondOrderBlock) {
    tail_sweep(std::integral_constant<std::uint32_t, kSecondOrderBlock>{}, nb);
  } else {
    tail_sweep(std::integral_constant<std::uint32_t, 0>{}, nb);
  }
}

/// Assembles the expansion in the header comment from the sweep products —
/// serial O(V), shared verbatim by both drivers.
EXPMK_NOALLOC SecondOrderResult so_assemble(const graph::CsrDag& csr,
                                            RetryModel model_kind,
                                            const SoLevels& lv,
                                            double pair_sum) {
  const bool het = lv.het;
  const double lambda = lv.lambda;
  const double d = lv.d;
  const SoPrefix& pre = lv.pre;
  const std::span<const double> l = lv.l;
  const std::span<const double> top = lv.top;
  const std::span<const double> bottom = lv.bottom;
  const std::span<const double> d_single = lv.d_single;
  const std::size_t n = csr.task_count();
  const std::span<const double> w = csr.weights();
  const double A = pre.A;
  const double L = pre.L;
  double e2 = het ? d * (1.0 - L + L * L / 2.0)
                  : d * (1.0 - lambda * A + lambda * lambda * A * A / 2.0);
  for (std::uint32_t i = 0; i < n; ++i) {
    if (het) {
      double coeff1;  // second-order coefficient on d(G_i)
      switch (model_kind) {
        case RetryModel::TwoState:
          coeff1 = l[i] * (l[i] / 2.0 - L);
          break;
        case RetryModel::Geometric:
          coeff1 = -l[i] * (L + l[i] / 2.0);
          break;
        default:
          coeff1 = 0.0;
      }
      e2 += (l[i] + coeff1) * d_single[i];
    } else {
      const double a = w[i];
      double coeff1;  // coefficient of lambda^2 on d(G_i)
      switch (model_kind) {
        case RetryModel::TwoState:
          coeff1 = a * (a / 2.0 - A);
          break;
        case RetryModel::Geometric:
          coeff1 = -a * (A + a / 2.0);
          break;
        default:
          coeff1 = 0.0;
      }
      e2 += (lambda * a + lambda * lambda * coeff1) * d_single[i];
    }
  }
  e2 += het ? pair_sum : lambda * lambda * pair_sum;

  if (model_kind == RetryModel::Geometric) {
    // Triple execution of a single task: weight 3 a_i with prob
    // (lambda_i a_i)^2 + O(lambda^3).
    double triple = 0.0;
    for (std::uint32_t i = 0; i < n; ++i) {
      const double thr3 = top[i] + bottom[i] + 2.0 * w[i];
      triple += (het ? l[i] * l[i] : w[i] * w[i]) * std::max(d, thr3);
    }
    e2 += het ? triple : lambda * lambda * triple;
  }

  SecondOrderResult out;
  out.critical_path = d;
  out.first_order =
      het ? d + pre.fo_correction : d + lambda * pre.fo_correction;
  out.expected_makespan = e2;
  return out;
}

}  // namespace

EXPMK_NOALLOC SecondOrderResult second_order(const scenario::Scenario& sc,
                                             exp::Workspace& ws) {
  const exp::Workspace::Frame frame(ws);
  const graph::CsrDag& csr = sc.csr();
  const std::size_t n = csr.task_count();
  const SoLevels lv = so_levels(sc, ws);
  const std::span<double> dist = ws.doubles(n * kSecondOrderBlock);

  // Pair terms sum_{i<j} m_i m_j d(G_ij) (m = a uniform, l het), swept in
  // blocks of kSecondOrderBlock consecutive sources (see so_block); the
  // per-lane partials fold into pair_sum in source order.
  double pair_sum = 0.0;
  for (std::uint32_t i0 = 0; i0 < n; i0 += kSecondOrderBlock) {
    const std::uint32_t nb = std::min<std::uint32_t>(
        kSecondOrderBlock, static_cast<std::uint32_t>(n) - i0);
    double acc[kSecondOrderBlock] = {};
    so_block(csr, lv, i0, nb, dist, acc);
    for (std::uint32_t ln = 0; ln < nb; ++ln) pair_sum += acc[ln];
  }
  return so_assemble(csr, sc.retry(), lv, pair_sum);
}

SecondOrderResult second_order(const scenario::Scenario& sc,
                               exp::Workspace& ws, std::size_t workers) {
  if (workers <= 1) return second_order(sc, ws);
  const exp::Workspace::Frame frame(ws);
  const graph::CsrDag& csr = sc.csr();
  const std::size_t n = csr.task_count();
  const SoLevels lv = so_levels(sc, ws);

  // Pair sweep: blocks fan out across workers, dealt round-robin to a few
  // chunks per worker — one claim and one lane-matrix lease (from the
  // worker's thread-local pooled workspace) per chunk, and the strided
  // deal evens out the early blocks' longer suffix sweeps. The per-lane
  // partials land in acc_all slots indexed by (block, lane) and fold here
  // in exactly the serial kernel's source order, so the sum is
  // bit-identical for any worker count.
  const std::size_t nblocks =
      (n + kSecondOrderBlock - 1) / kSecondOrderBlock;
  const std::span<double> acc_all = ws.doubles(nblocks * kSecondOrderBlock);
  const std::size_t chunks = std::min(nblocks, kChunksPerWorker * workers);
  util::for_each_chunk(workers, chunks, [&](std::size_t c) {
    exp::Workspace& tws = exp::Workspace::local();
    const exp::Workspace::Frame tframe(tws);
    const std::span<double> dist = tws.doubles(n * kSecondOrderBlock);
    for (std::size_t b = c; b < nblocks; b += chunks) {
      const auto i0 = static_cast<std::uint32_t>(b * kSecondOrderBlock);
      const std::uint32_t nb = std::min<std::uint32_t>(
          kSecondOrderBlock, static_cast<std::uint32_t>(n) - i0);
      double acc[kSecondOrderBlock] = {};
      so_block(csr, lv, i0, nb, dist, acc);
      for (std::uint32_t ln = 0; ln < nb; ++ln) {
        acc_all[b * kSecondOrderBlock + ln] = acc[ln];
      }
    }
  });
  double pair_sum = 0.0;
  for (std::size_t b = 0; b < nblocks; ++b) {
    const std::uint32_t nb = std::min<std::uint32_t>(
        kSecondOrderBlock,
        static_cast<std::uint32_t>(n - b * kSecondOrderBlock));
    for (std::uint32_t ln = 0; ln < nb; ++ln) {
      pair_sum += acc_all[b * kSecondOrderBlock + ln];
    }
  }
  return so_assemble(csr, sc.retry(), lv, pair_sum);
}

}  // namespace expmk::core
