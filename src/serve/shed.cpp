#include "serve/shed.hpp"

#include <algorithm>

namespace expmk::serve {

double LatencyWindow::quantile(double q) const noexcept {
  double window[kCapacity];
  std::size_t n;
  {
    const std::lock_guard<std::mutex> lock(m_);
    n = count_;
    std::copy(ring_, ring_ + n, window);
  }
  if (n == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // Nearest rank in the sorted window: the highest sample at p99 of a
  // 512-deep ring, matching how the bench reports its percentiles.
  // nth_element places exactly the value a full sort would put there.
  const std::size_t rank = std::min(
      static_cast<std::size_t>(q * static_cast<double>(n - 1) + 0.5), n - 1);
  std::nth_element(window, window + rank, window + n);
  return window[rank];
}

}  // namespace expmk::serve
