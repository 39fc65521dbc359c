#include "normal/clark_full.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace expmk::normal {

namespace {

EXPMK_NOALLOC double safe_rho(double cov, double var_x, double var_y) {
  const double denom = std::sqrt(var_x) * std::sqrt(var_y);
  if (denom <= 0.0) return 0.0;
  return cov / denom;
}

/// The rho-propagation row kernel: row[z] <- Cov(max, C_z) for every z via
/// Clark's linkage, with the fold weights hoisted out of the loop. The
/// body is prob::clark_linkage inlined — cov_xz * wx + cov_yz * wy, the
/// identical two-multiply-one-add per element — so the results are bit
/// for bit what the per-element call produced; hoisting just turns an
/// opaque cross-TU call per matrix element into a branch-free elementwise
/// loop the compiler vectorizes. Rows are cache-resident up to the dense
/// limit (kClarkFullMaxTasks doubles), so the row itself is the cache
/// block.
EXPMK_NOALLOC void linkage_row(std::span<double> row, const double* cov_row,
                 const prob::ClarkMax& fold) {
  const double wx = fold.weight_x;
  const double wy = fold.weight_y;
  double* r = row.data();
  const std::size_t n = row.size();
  for (std::size_t z = 0; z < n; ++z) {
    r[z] = r[z] * wx + cov_row[z] * wy;
  }
}

/// The forward sweep over CSR positions; the covariance matrix, the
/// moments and the row are all indexed by position.
EXPMK_NOALLOC NormalEstimate clark_full_impl(const graph::CsrDag& csr,
                               std::span<const double> p,
                               core::RetryModel kind,
                               std::span<prob::NormalMoments> completion,
                               std::span<double> cov, std::span<double> row,
                               std::span<const std::uint32_t> exits) {
  const std::size_t n = csr.task_count();
  if (n == 0) throw std::invalid_argument("clark_full: empty graph");
  if (n > kClarkFullMaxTasks) {
    throw std::invalid_argument(
        "clark_full: task count exceeds the dense covariance limit");
  }
  const std::span<const double> w = csr.weights();

  // Dense symmetric covariance of completion times, row-major; the
  // algorithm reads unwritten entries of ancestors' rows, so the whole
  // matrix starts at zero whatever storage backs it.
  std::fill(cov.begin(), cov.end(), 0.0);

  // row = Cov(M, C_z) for the running max M
  for (std::uint32_t v = 0; v < n; ++v) {
    prob::NormalMoments m{0.0, 0.0};
    std::fill(row.begin(), row.end(), 0.0);
    bool first = true;
    for (const std::uint32_t u : csr.preds(v)) {
      if (first) {
        m = completion[u];
        for (std::size_t z = 0; z < n; ++z) {
          row[z] = cov[static_cast<std::size_t>(u) * n + z];
        }
        first = false;
        continue;
      }
      const double rho = safe_rho(row[u], m.var, completion[u].var);
      const auto fold = prob::clark_max(m, completion[u], rho);
      linkage_row(row, &cov[static_cast<std::size_t>(u) * n], fold);
      m = fold.moments;
    }
    // C_v = M + X_v with X_v independent of everything before it.
    completion[v] =
        prob::sum_independent(m, duration_moments_p(w[v], p[v], kind));
    for (std::size_t z = 0; z < n; ++z) {
      cov[static_cast<std::size_t>(v) * n + z] = row[z];
      cov[z * n + v] = row[z];
    }
    cov[static_cast<std::size_t>(v) * n + v] = completion[v].var;
  }

  // Fold the exits into the makespan, reusing the same linkage machinery.
  prob::NormalMoments makespan{0.0, 0.0};
  std::fill(row.begin(), row.end(), 0.0);
  bool first = true;
  for (const std::uint32_t v : exits) {
    if (first) {
      makespan = completion[v];
      for (std::size_t z = 0; z < n; ++z) {
        row[z] = cov[static_cast<std::size_t>(v) * n + z];
      }
      first = false;
      continue;
    }
    const double rho = safe_rho(row[v], makespan.var, completion[v].var);
    const auto fold = prob::clark_max(makespan, completion[v], rho);
    linkage_row(row, &cov[static_cast<std::size_t>(v) * n], fold);
    makespan = fold.moments;
  }
  return NormalEstimate{makespan};
}

}  // namespace

EXPMK_NOALLOC NormalEstimate clark_full(const scenario::Scenario& sc, exp::Workspace& ws) {
  const std::size_t n = sc.task_count();
  if (n > kClarkFullMaxTasks) {
    // Same guard as the impl, but BEFORE the O(V^2) lease would grow the
    // workspace arena for a call that is going to throw anyway.
    throw std::invalid_argument(
        "clark_full: task count exceeds the dense covariance limit");
  }
  const exp::Workspace::Frame frame(ws);
  return clark_full_impl(sc.csr(), sc.p_success_csr(), sc.retry(),
                         ws.moments(n), ws.doubles(n * n), ws.doubles(n),
                         sc.exits());
}

}  // namespace expmk::normal
