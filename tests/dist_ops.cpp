#include "dist_ops.hpp"

#include <cmath>
#include <cstddef>
#include <stdexcept>
#include <utility>

namespace expmk::dist_ops {

namespace dk = prob::dist_kernels;
using prob::Atom;

namespace {

/// The kernel's output prefix as a value (the kernels emit canonical
/// lists, so the trusted constructor keeps the bytes).
DiscreteDistribution take(const std::vector<Atom>& out, std::size_t n) {
  return DiscreteDistribution::from_canonical(
      {out.begin(), out.begin() + static_cast<std::ptrdiff_t>(n)});
}

}  // namespace

DiscreteDistribution convolve(const DiscreteDistribution& x,
                              const DiscreteDistribution& y,
                              std::size_t max_atoms, TruncationCert* cert) {
  const dk::ConvolveScratch need =
      dk::convolve_scratch(x.size(), y.size(), max_atoms);
  std::vector<Atom> out(need.out);
  std::vector<Atom> scratch(need.atoms);
  std::vector<double> gaps(need.gaps);
  TruncationCert unused;
  const std::size_t n =
      dk::convolve(x.atoms(), y.atoms(), max_atoms,
                   cert != nullptr ? *cert : unused, out, scratch, gaps);
  return take(out, n);
}

DiscreteDistribution max_of(const DiscreteDistribution& x,
                            const DiscreteDistribution& y,
                            std::size_t max_atoms, TruncationCert* cert) {
  std::vector<Atom> out(x.size() + y.size());
  const std::size_t n = dk::max_of(x.atoms(), y.atoms(), out);
  return truncated(take(out, n), max_atoms, cert);
}

DiscreteDistribution mixture(const DiscreteDistribution& x, double w,
                             const DiscreteDistribution& y) {
  if (w < 0.0 || w > 1.0) {
    throw std::invalid_argument("mixture: weight must be in [0,1]");
  }
  std::vector<Atom> out;
  out.reserve(x.size() + y.size());
  for (const Atom& at : x.atoms()) out.push_back({at.value, w * at.prob});
  for (const Atom& at : y.atoms()) out.push_back({at.value, (1.0 - w) * at.prob});
  return take(out, dk::canonicalize(out));
}

DiscreteDistribution truncated(const DiscreteDistribution& d,
                               std::size_t max_atoms, TruncationCert* cert) {
  if (max_atoms == 0 || d.size() <= max_atoms) return d;
  std::vector<Atom> atoms = d.atoms();
  std::vector<double> gaps(atoms.size() - 1);
  TruncationCert unused;
  const std::size_t n =
      dk::truncate(atoms, max_atoms, cert != nullptr ? *cert : unused, gaps);
  return take(atoms, n);
}

DiscreteDistribution shifted(const DiscreteDistribution& d, double c) {
  std::vector<Atom> atoms = d.atoms();
  dk::shift(atoms, c);
  return DiscreteDistribution::from_canonical(std::move(atoms));
}

DiscreteDistribution geometric_reexec(double a, double p_success,
                                      int max_attempts) {
  if (a <= 0.0) {
    throw std::invalid_argument("geometric_reexec: weight must be > 0");
  }
  if (p_success <= 0.0 || p_success > 1.0) {
    throw std::invalid_argument("geometric_reexec: p in (0,1] required");
  }
  if (max_attempts < 1) {
    throw std::invalid_argument("geometric_reexec: max_attempts >= 1");
  }
  std::vector<Atom> atoms;
  atoms.reserve(static_cast<std::size_t>(max_attempts));
  double tail = 1.0;  // P(attempts >= k)
  for (int k = 1; k < max_attempts; ++k) {
    const double pk = tail * p_success;
    atoms.push_back({a * k, pk});
    tail -= pk;
  }
  atoms.push_back({a * max_attempts, tail});
  return DiscreteDistribution::from_atoms(std::move(atoms));
}

bool approx_equals(const DiscreteDistribution& a,
                   const DiscreteDistribution& b, double tol) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::fabs(a.atoms()[i].value - b.atoms()[i].value) > tol) return false;
    if (std::fabs(a.atoms()[i].prob - b.atoms()[i].prob) > tol) return false;
  }
  return true;
}

OwnedLawTable law_table(std::span<const DiscreteDistribution> laws) {
  OwnedLawTable t;
  t.offsets.push_back(0);
  for (const DiscreteDistribution& law : laws) {
    t.atoms.insert(t.atoms.end(), law.atoms().begin(), law.atoms().end());
    t.offsets.push_back(t.atoms.size());
  }
  return t;
}

std::vector<DiscreteDistribution> distributions(const LawTable& table) {
  std::vector<DiscreteDistribution> out;
  out.reserve(table.size());
  for (std::size_t i = 0; i < table.size(); ++i) {
    const std::span<const Atom> law = table.law(i);
    out.push_back(
        DiscreteDistribution::from_canonical({law.begin(), law.end()}));
  }
  return out;
}

}  // namespace expmk::dist_ops
