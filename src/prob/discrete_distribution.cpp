#include "prob/discrete_distribution.hpp"

#include <ostream>
#include <stdexcept>
#include <utility>

#include "prob/dist_kernels.hpp"

namespace expmk::prob {

namespace dk = dist_kernels;

DiscreteDistribution::DiscreteDistribution() : atoms_{{0.0, 1.0}} {}

DiscreteDistribution::DiscreteDistribution(std::vector<Atom> sorted_atoms)
    : atoms_(std::move(sorted_atoms)) {}

DiscreteDistribution DiscreteDistribution::point(double value) {
  return DiscreteDistribution({{value, 1.0}});
}

DiscreteDistribution DiscreteDistribution::two_state(double a,
                                                     double p_success) {
  if (a <= 0.0) throw std::invalid_argument("two_state: weight must be > 0");
  if (p_success < 0.0 || p_success > 1.0) {
    throw std::invalid_argument("two_state: p_success must be in [0,1]");
  }
  std::vector<Atom> atoms(2);
  atoms.resize(dk::two_state(a, p_success, atoms));
  return DiscreteDistribution(std::move(atoms));
}

DiscreteDistribution DiscreteDistribution::from_atoms(std::vector<Atom> atoms) {
  atoms.resize(dk::consolidate(atoms));
  dk::normalize(atoms);  // throws on empty / non-positive total mass
  return DiscreteDistribution(std::move(atoms));
}

DiscreteDistribution DiscreteDistribution::from_canonical(
    std::vector<Atom> atoms) {
  if (atoms.empty()) {
    throw std::invalid_argument("from_canonical: empty atom list");
  }
  return DiscreteDistribution(std::move(atoms));
}

double DiscreteDistribution::mean() const noexcept {
  return dk::mean(atoms_);
}

double DiscreteDistribution::variance() const noexcept {
  const double m = mean();
  double v = 0.0;
  for (const Atom& at : atoms_) {
    const double d = at.value - m;
    v += d * d * at.prob;
  }
  return v;
}

double DiscreteDistribution::cdf(double x) const noexcept {
  double acc = 0.0;
  for (const Atom& at : atoms_) {
    if (at.value > x) break;
    acc += at.prob;
  }
  return acc;
}

double DiscreteDistribution::quantile(double q) const {
  return dk::quantile(atoms_, q);
}

std::ostream& operator<<(std::ostream& os, const DiscreteDistribution& d) {
  os << '{';
  bool first = true;
  for (const Atom& at : d.atoms()) {
    if (!first) os << ',';
    os << '(' << at.value << ',' << at.prob << ')';
    first = false;
  }
  return os << '}';
}

}  // namespace expmk::prob
