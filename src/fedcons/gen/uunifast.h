// Utilization vector sampling.
//
// UUniFast (Bini & Buttazzo, 2005) draws n per-task utilizations summing to a
// target U, uniformly over the (n−1)-simplex — the standard generator in
// schedulability experiments, including the random-task-system experiments
// the paper describes in Section IV. UUniFast-Discard (Emberson et al.)
// extends it to U > 1 (multiprocessor targets) by rejecting draws where any
// single utilization exceeds a cap.
#pragma once

#include <vector>

#include "fedcons/util/rng.h"

namespace fedcons {

/// UUniFast: n utilizations > 0 summing (to floating accuracy) to total.
/// Preconditions: n >= 1, total > 0. For unbiased simplex sampling the
/// caller should keep total <= 1; use uunifast_discard otherwise.
[[nodiscard]] std::vector<double> uunifast(Rng& rng, int n, double total);

/// UUniFast-Discard: like uunifast but resamples until every utilization is
/// at most `cap` (cap defaults to 1, the classic multiprocessor convention).
/// Preconditions: n >= 1, total > 0, cap > 0, total <= n*cap (otherwise no
/// valid vector exists — rejected via contract). `max_attempts` bounds the
/// rejection loop; throws when exceeded (degenerate parameter corner).
[[nodiscard]] std::vector<double> uunifast_discard(Rng& rng, int n,
                                                   double total,
                                                   double cap = 1.0,
                                                   int max_attempts = 10000);

}  // namespace fedcons
