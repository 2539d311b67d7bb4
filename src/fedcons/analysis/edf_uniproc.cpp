#include "fedcons/analysis/edf_uniproc.h"

#include <algorithm>

#include "fedcons/analysis/dbf.h"
#include "fedcons/util/check.h"
#include "fedcons/util/rational.h"

namespace fedcons {

namespace {

/// Σ u_i as an exact rational.
BigRational total_utilization(std::span<const SporadicTask> tasks) {
  BigRational sum;
  for (const auto& t : tasks) sum += t.utilization();
  return sum;
}

/// Hyperperiod + max D, or kTimeInfinity on overflow.
Time hyperperiod_bound(std::span<const SporadicTask> tasks) {
  Time lcm = 1;
  Time dmax = 0;
  try {
    for (const auto& t : tasks) {
      lcm = checked_lcm(lcm, t.period);
      dmax = std::max(dmax, t.deadline);
    }
    return checked_add(lcm, dmax);
  } catch (const ContractViolation&) {
    return kTimeInfinity;
  }
}

/// Baruah–Mok–Rosier bound: Σ u_i(T_i − D_i)/(1 − U), or infinity at U ≥ 1.
/// Any t at or beyond the returned value satisfies Σ DBF(t) ≤ t when U ≤ 1.
Time bmr_bound(std::span<const SporadicTask> tasks) {
  BigRational u = total_utilization(tasks);
  if (u >= BigRational(1)) return kTimeInfinity;
  BigRational num;
  for (const auto& t : tasks) {
    num += make_ratio(t.wcet, t.period) * BigRational(t.period - t.deadline);
  }
  BigRational bound = num / (BigRational(1) - u);
  if (bound.sign() <= 0) return 1;  // all D >= T: only tiny t can violate
  return bound.ceil();
}

}  // namespace

Time busy_period(std::span<const SporadicTask> tasks) {
  if (tasks.empty()) return 0;
  Time w = 0;
  for (const auto& t : tasks) w = checked_add(w, t.wcet);
  constexpr int kMaxIterations = 1'000'000;
  for (int i = 0; i < kMaxIterations; ++i) {
    Time next = 0;
    try {
      for (const auto& t : tasks) {
        next = checked_add(next, checked_mul(ceil_div(w, t.period), t.wcet));
      }
    } catch (const ContractViolation&) {
      return kTimeInfinity;
    }
    if (next == w) return w;
    w = next;
  }
  return kTimeInfinity;
}

Time pdc_testing_bound(std::span<const SporadicTask> tasks) {
  Time bound = kTimeInfinity;
  bound = std::min(bound, hyperperiod_bound(tasks));
  bound = std::min(bound, bmr_bound(tasks));
  // The busy period is also a valid bound but costs a fixed-point iteration;
  // only compute it when the cheap bounds are unbounded or very large.
  if (bound == kTimeInfinity || bound > Time{1} << 40) {
    bound = std::min(bound, busy_period(tasks));
  }
  return bound;
}

namespace {

/// Largest absolute-deadline point strictly below x, or -1 if none.
Time max_deadline_below(std::span<const SporadicTask> tasks, Time x) {
  Time best = -1;
  for (const auto& t : tasks) {
    if (x <= t.deadline) continue;
    Time k = floor_div(x - 1 - t.deadline, t.period);
    best = std::max(best, checked_add(t.deadline, checked_mul(k, t.period)));
  }
  return best;
}

}  // namespace

EdfResult edf_schedulable_qpa(std::span<const SporadicTask> tasks) {
  if (tasks.empty()) return {true, std::nullopt};
  if (total_utilization(tasks) > BigRational(1)) return {false, std::nullopt};

  const Time bound = pdc_testing_bound(tasks);
  FEDCONS_EXPECTS_MSG(bound != kTimeInfinity,
                      "no finite QPA testing bound for this task set");

  Time dmin = kTimeInfinity;
  for (const auto& t : tasks) dmin = std::min(dmin, t.deadline);

  Time t = max_deadline_below(tasks, bound);
  if (t < 0) return {true, std::nullopt};  // no deadline inside the interval
  while (true) {
    Time h = total_dbf(tasks, t);
    if (h > t) return {false, t};
    if (h <= dmin) return {true, std::nullopt};
    if (h < t) {
      t = h;
    } else {  // h == t: step to the previous deadline point
      t = max_deadline_below(tasks, t);
      if (t < 0) return {true, std::nullopt};
    }
  }
}

}  // namespace fedcons
