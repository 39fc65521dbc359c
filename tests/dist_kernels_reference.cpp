#include "dist_kernels_reference.hpp"

#include <algorithm>
#include <cstring>

namespace expmk::test {

using prob::Atom;
using prob::dist_kernels::canonicalize;
using prob::dist_kernels::TruncationCert;

std::size_t reference_truncate(std::span<Atom> atoms, std::size_t max_atoms,
                               TruncationCert& cert,
                               std::span<double> gap_scratch) {
  std::size_t n = atoms.size();
  if (max_atoms == 0 || n <= max_atoms) return n;

  std::size_t local_merges = 0;
  // Greedy pass merging nearest-by-value adjacent atoms; each round
  // removes roughly half the overshoot, and every merge's displacement
  // is accounted in the certificate.
  while (n > max_atoms) {
    const std::size_t excess = n - max_atoms;
    // Collect gaps twice (the walk's decision array and the nth_element
    // scratch that the threshold pick scrambles), then pick a threshold
    // so we merge ~excess pairs this pass.
    const std::span<double> gaps = gap_scratch.subspan(0, n - 1);
    const std::span<double> sorted = gap_scratch.subspan(n - 1, n - 1);
    for (std::size_t i = 0; i + 1 < n; ++i) {
      const double g = atoms[i + 1].value - atoms[i].value;
      gaps[i] = g;
      sorted[i] = g;
    }
    const std::size_t kth = std::min(excess, sorted.size()) - 1;
    std::nth_element(sorted.begin(),
                     sorted.begin() + static_cast<std::ptrdiff_t>(kth),
                     sorted.end());
    const double threshold = sorted[kth];

    // Merge walk, compacting IN PLACE: the write index m never passes the
    // read index i (a merge consumes two atoms for one write, a keep is a
    // self- or left-shift copy), so the pass needs no atom scratch and the
    // former scratch->atoms copy-back is gone. The displacement
    // accumulation below runs left to right.
    std::size_t m = 0;
    std::size_t i = 0;
    std::size_t budget = excess;  // pairs we may merge this pass
    while (i < n) {
      if (budget == 0) {
        // No merges can fire past this point: the rest of the pass is a
        // pure left shift, done in one bulk move. (Typical dodin combine
        // steps overshoot the cap by a few atoms, so most of the walk is
        // this tail.)
        if (m != i) {
          std::memmove(atoms.data() + m, atoms.data() + i,
                       (n - i) * sizeof(Atom));
        }
        m += n - i;
        break;
      }
      if (i + 1 < n && gaps[i] <= threshold) {
        const Atom a = atoms[i];
        const Atom b = atoms[i + 1];
        const double p = a.prob + b.prob;
        const double v = (a.value * a.prob + b.value * b.prob) / p;
        // Mass p_a moved up to the weighted mean, mass p_b moved down:
        // the certified expectation-shift envelope of this merge.
        cert.up += a.prob * (v - a.value);
        cert.down += b.prob * (b.value - v);
        ++local_merges;
        atoms[m++] = {v, p};
        i += 2;
        --budget;
      } else {
        atoms[m] = atoms[i];
        ++m;
        ++i;
      }
    }
    if (m == n) break;  // no progress (defensive)
    n = m;
  }
  if (local_merges > 0) {
    ++cert.events;
    cert.merges += local_merges;
  }
  // Re-canonicalize: merged values may have landed within the eps
  // window, and the merged masses are renormalized.
  return canonicalize(atoms.subspan(0, n));
}

}  // namespace expmk::test
