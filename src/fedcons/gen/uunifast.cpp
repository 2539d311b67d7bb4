#include "fedcons/gen/uunifast.h"

#include <algorithm>
#include <cmath>

#include "fedcons/util/check.h"

namespace fedcons {

std::vector<double> uunifast(Rng& rng, int n, double total) {
  FEDCONS_EXPECTS(n >= 1);
  FEDCONS_EXPECTS(total > 0.0);
  std::vector<double> u(static_cast<std::size_t>(n));
  double sum = total;
  for (int i = 1; i < n; ++i) {
    double next = sum * std::pow(rng.uniform01(),
                                 1.0 / static_cast<double>(n - i));
    u[static_cast<std::size_t>(i - 1)] = sum - next;
    sum = next;
  }
  u[static_cast<std::size_t>(n - 1)] = sum;
  return u;
}

std::vector<double> uunifast_discard(Rng& rng, int n, double total, double cap,
                                     int max_attempts) {
  FEDCONS_EXPECTS(n >= 1);
  FEDCONS_EXPECTS(total > 0.0);
  FEDCONS_EXPECTS(cap > 0.0);
  FEDCONS_EXPECTS_MSG(total <= static_cast<double>(n) * cap,
                      "target utilization not reachable under the cap");
  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    auto u = uunifast(rng, n, total);
    if (std::all_of(u.begin(), u.end(),
                    [cap](double x) { return x <= cap; })) {
      return u;
    }
  }
  FEDCONS_EXPECTS_MSG(false, "uunifast_discard rejection budget exhausted");
  return {};  // unreachable
}

}  // namespace fedcons
