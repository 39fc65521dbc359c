#include "graph/csr.hpp"

#include <limits>
#include <stdexcept>
#include <type_traits>

#include "graph/topological.hpp"

namespace expmk::graph {

CsrDag::CsrDag(const Dag& g) {
  const std::size_t n = g.task_count();
  order_ = topological_order(g);  // throws on cycle
  position_.resize(n);
  for (std::uint32_t pos = 0; pos < n; ++pos) {
    position_[order_[pos]] = pos;
  }

  weights_.resize(n);
  for (std::uint32_t pos = 0; pos < n; ++pos) {
    weights_[pos] = g.weight(order_[pos]);
  }

  pred_offsets_.assign(n + 1, 0);
  succ_offsets_.assign(n + 1, 0);
  for (std::uint32_t pos = 0; pos < n; ++pos) {
    const TaskId id = order_[pos];
    pred_offsets_[pos + 1] =
        pred_offsets_[pos] + static_cast<std::uint32_t>(g.in_degree(id));
    succ_offsets_[pos + 1] =
        succ_offsets_[pos] + static_cast<std::uint32_t>(g.out_degree(id));
  }

  pred_index_.resize(pred_offsets_[n]);
  succ_index_.resize(succ_offsets_[n]);
  for (std::uint32_t pos = 0; pos < n; ++pos) {
    const TaskId id = order_[pos];
    std::uint32_t cursor = pred_offsets_[pos];
    for (const TaskId u : g.predecessors(id)) {
      pred_index_[cursor++] = position_[u];
    }
    cursor = succ_offsets_[pos];
    for (const TaskId w : g.successors(id)) {
      succ_index_[cursor++] = position_[w];
    }
  }
}

CsrDag::CsrDag(const CsrDag& base, std::span<const double> weights_by_id)
    : weights_(base.weights_.size()),
      order_(base.order_),
      position_(base.position_),
      pred_offsets_(base.pred_offsets_),
      pred_index_(base.pred_index_),
      succ_offsets_(base.succ_offsets_),
      succ_index_(base.succ_index_) {
  if (weights_by_id.size() != base.task_count()) {
    throw std::invalid_argument(
        "CsrDag reweight: weights size mismatch with task count");
  }
  for (std::uint32_t pos = 0; pos < weights_.size(); ++pos) {
    weights_[pos] = weights_by_id[order_[pos]];
  }
}

namespace {
constexpr double kNegInf = -std::numeric_limits<double>::infinity();

EXPMK_NOALLOC void check_scratch(const CsrDag& g, std::span<const double> weights,
                   std::span<const double> scratch) {
  if (weights.size() != g.task_count() || scratch.size() != g.task_count()) {
    throw std::invalid_argument(
        "csr: weights/scratch size mismatch with task count");
  }
}
}  // namespace

EXPMK_NOALLOC double critical_path_length(const CsrDag& g, std::span<const double> weights,
                            std::span<double> finish) {
  check_scratch(g, weights, finish);
  const std::size_t n = g.task_count();
  const std::span<const std::uint32_t> off = g.pred_offsets();
  const std::span<const std::uint32_t> pred = g.pred_index();
  double best = 0.0;
  for (std::uint32_t v = 0; v < n; ++v) {
    double start = 0.0;
    for (std::uint32_t e = off[v]; e < off[v + 1]; ++e) {
      const double f = finish[pred[e]];
      if (f > start) start = f;
    }
    const double fv = start + weights[v];
    finish[v] = fv;
    if (fv > best) best = fv;
  }
  return best;
}

double critical_path_length(const Dag& g) {
  const CsrDag csr(g);
  std::vector<double> finish(csr.task_count());
  return critical_path_length(csr, csr.weights(), finish);
}

EXPMK_NOALLOC void longest_from(const CsrDag& g, std::uint32_t source,
                  std::span<const double> weights, std::span<double> dist) {
  check_scratch(g, weights, dist);
  const std::size_t n = g.task_count();
  if (source >= n) {
    throw std::out_of_range("csr longest_from: invalid source");
  }
  const std::span<const std::uint32_t> off = g.pred_offsets();
  const std::span<const std::uint32_t> pred = g.pred_index();
  dist[source] = weights[source];
  // Positions after `source` are the only candidates (topological
  // renumbering); a predecessor below `source` is unreachable from it, so
  // its (stale) dist entry must be ignored rather than read.
  for (std::uint32_t v = source + 1; v < n; ++v) {
    double best = kNegInf;
    for (std::uint32_t e = off[v]; e < off[v + 1]; ++e) {
      const std::uint32_t u = pred[e];
      if (u < source) continue;
      const double d = dist[u];
      if (d > best) best = d;
    }
    dist[v] = best == kNegInf ? kNegInf : best + weights[v];
  }
}

EXPMK_NOALLOC void longest_from_block(const CsrDag& g, std::uint32_t base,
                        std::uint32_t nlanes, std::span<const double> weights,
                        std::span<double> dist) {
  const std::size_t n = g.task_count();
  if (weights.size() != n) {
    throw std::invalid_argument(
        "csr longest_from_block: weights size mismatch with task count");
  }
  if (nlanes == 0 || base + nlanes > n) {
    throw std::out_of_range("csr longest_from_block: invalid source block");
  }
  if (dist.size() < n * static_cast<std::size_t>(nlanes)) {
    throw std::invalid_argument(
        "csr longest_from_block: dist scratch too small");
  }
  const std::span<const std::uint32_t> off = g.pred_offsets();
  const std::span<const std::uint32_t> pred = g.pred_index();

  // Head region [base, base + nlanes): lanes are still crossing their own
  // sources, so run the exact per-lane scalar recurrence (tiny: at most
  // nlanes^2 entries). Positions below a lane's source are seeded with
  // -infinity — the arithmetic realization of longest_from's "skip
  // predecessors below the source".
  const std::uint32_t head_end = base + nlanes;
  for (std::uint32_t v = base; v < head_end; ++v) {
    for (std::uint32_t l = 0; l < nlanes; ++l) {
      const std::uint32_t s = base + l;
      double out;
      if (v < s) {
        out = kNegInf;
      } else if (v == s) {
        out = weights[v];
      } else {
        double best = kNegInf;
        for (std::uint32_t e = off[v]; e < off[v + 1]; ++e) {
          const std::uint32_t u = pred[e];
          if (u < base) continue;  // below every lane's source
          const double d = dist[u * nlanes + l];
          if (d > best) best = d;
        }
        out = best == kNegInf ? kNegInf : best + weights[v];
      }
      dist[v * nlanes + l] = out;
    }
  }

  // Tail region: every lane is past its source, so the recurrence is
  // uniform across lanes and the edge pass is shared — one read of the
  // predecessor list serves all nlanes sources. `best + w` with
  // best = -inf yields -inf for finite task weights, which is bit-for-bit
  // the scalar path's explicit unreachable check. The full-width case
  // runs with a compile-time lane count so the per-lane max/add loops
  // vectorize (ternary selects, not conditional stores); the generic
  // fallback is the identical code with a runtime trip count.
  auto tail = [&](auto width, std::uint32_t lanes) {
    constexpr std::uint32_t kW = decltype(width)::value;
    const std::uint32_t nl = kW != 0 ? kW : lanes;
    for (std::uint32_t v = head_end; v < n; ++v) {
      double* dv = &dist[v * nl];
      for (std::uint32_t l = 0; l < nl; ++l) dv[l] = kNegInf;
      for (std::uint32_t e = off[v]; e < off[v + 1]; ++e) {
        const std::uint32_t u = pred[e];
        if (u < base) continue;
        const double* du = &dist[u * nl];
        for (std::uint32_t l = 0; l < nl; ++l) {
          dv[l] = du[l] > dv[l] ? du[l] : dv[l];
        }
      }
      const double wv = weights[v];
      for (std::uint32_t l = 0; l < nl; ++l) {
        dv[l] = dv[l] == kNegInf ? kNegInf : dv[l] + wv;
      }
    }
  };
  if (nlanes == 8) {
    tail(std::integral_constant<std::uint32_t, 8>{}, nlanes);
  } else {
    tail(std::integral_constant<std::uint32_t, 0>{}, nlanes);
  }
}

EXPMK_NOALLOC double compute_levels(const CsrDag& g, std::span<const double> weights,
                      std::span<double> top, std::span<double> bottom) {
  check_scratch(g, weights, top);
  check_scratch(g, weights, bottom);
  const std::size_t n = g.task_count();
  const std::span<const std::uint32_t> poff = g.pred_offsets();
  const std::span<const std::uint32_t> pred = g.pred_index();
  const std::span<const std::uint32_t> soff = g.succ_offsets();
  const std::span<const std::uint32_t> succ = g.succ_index();
  for (std::uint32_t v = 0; v < n; ++v) {
    double t = 0.0;
    for (std::uint32_t e = poff[v]; e < poff[v + 1]; ++e) {
      const std::uint32_t u = pred[e];
      const double cand = top[u] + weights[u];
      if (cand > t) t = cand;
    }
    top[v] = t;
  }
  double d = 0.0;
  for (std::uint32_t v = static_cast<std::uint32_t>(n); v-- > 0;) {
    double below = 0.0;
    for (std::uint32_t e = soff[v]; e < soff[v + 1]; ++e) {
      if (bottom[succ[e]] > below) below = bottom[succ[e]];
    }
    bottom[v] = below + weights[v];
    const double through = top[v] + bottom[v];
    if (through > d) d = through;
  }
  return d;
}

}  // namespace expmk::graph
