#include "fedcons/analysis/dbf.h"

#include <algorithm>
#include <limits>

#include "fedcons/simd/dbf_kernel.h"
#include "fedcons/util/check.h"
#include "fedcons/util/perf_counters.h"

namespace fedcons {

Time dbf(const SporadicTask& task, Time t) {
  if (t < task.deadline) return 0;
  Time jobs = floor_div(t - task.deadline, task.period) + 1;
  // Saturating, not checked: a demand beyond int64 means "unschedulable by
  // saturation" (kTimeInfinity exceeds every supply comparison), never a
  // wrap and never an abort mid-analysis.
  return saturating_mul(jobs, task.wcet);
}

BigRational dbf_approx(const SporadicTask& task, Time t) {
  ++perf_counters().dbf_star_evaluations;
  if (t < task.deadline) return BigRational(0);
  // vol + u·(t − D) = C·(T + t − D)/T. The inner sum is formed in BigInt —
  // T + (t − D) can exceed int64 for extreme parameters.
  BigInt num = BigInt(task.wcet) *
               (BigInt(task.period) + BigInt(t - task.deadline));
  return BigRational(std::move(num), BigInt(task.period));
}

BigRational dbf_approx_k(const SporadicTask& task, Time t, int points) {
  FEDCONS_EXPECTS(points >= 1);
  ++perf_counters().dbf_star_evaluations;
  if (t < task.deadline) return BigRational(0);
  // Last exact step instant covered by the k points. A saturated tail start
  // just means every representable t sits in the exact region.
  const Time tail_start = saturating_add(
      task.deadline,
      saturating_mul(static_cast<Time>(points - 1), task.period));
  if (t < tail_start) return BigRational(dbf(task, t));  // exact region
  // k·C + u·(t − tail_start), with the k·T product formed in BigInt.
  BigInt num = BigInt(task.wcet) *
               (BigInt(static_cast<Time>(points)) * BigInt(task.period) +
                BigInt(t - tail_start));
  return BigRational(std::move(num), BigInt(task.period));
}

std::vector<Time> dbf_approx_breakpoints(std::span<const SporadicTask> tasks,
                                         int points, Time horizon) {
  FEDCONS_EXPECTS(points >= 1);
  std::vector<Time> out;
  for (const auto& task : tasks) {
    for (int i = 0; i < points; ++i) {
      // Saturated breakpoints exceed any finite horizon and drop out here.
      Time bp = saturating_add(
          task.deadline, saturating_mul(static_cast<Time>(i), task.period));
      if (bp > 0 && bp <= horizon && bp != kTimeInfinity) out.push_back(bp);
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

Time total_dbf(std::span<const SporadicTask> tasks, Time t) {
  // Saturating accumulation: an overflowing total reads as kTimeInfinity,
  // which every "demand ≤ supply" comparison downstream rejects — the
  // correct verdict (unschedulable by saturation), reached without UB.
  Time sum = 0;
  for (const auto& task : tasks) sum = saturating_add(sum, dbf(task, t));
  return sum;
}

void DbfStarAggregate::insert(const SporadicTask& task) {
  const auto pos =
      std::upper_bound(deadlines_.begin(), deadlines_.end(), task.deadline);
  const auto idx = static_cast<std::size_t>(pos - deadlines_.begin());
  const auto p = static_cast<std::ptrdiff_t>(idx);
  deadlines_.insert(pos, task.deadline);
  vol_.insert(vol_.begin() + p, task.wcet);
  period_.insert(period_.begin() + p, task.period);

  const simd::DbfCand term =
      simd::dbf_affine_term(task.wcet, task.deadline, task.period);
  term_a_.insert(term_a_.begin() + p, term.a);
  term_b_.insert(term_b_.begin() + p, term.b);
  term_mag_.insert(term_mag_.begin() + p, term.mag);

  const auto dpos = std::lower_bound(distinct_deadlines_.begin(),
                                     distinct_deadlines_.end(), task.deadline);
  if (dpos == distinct_deadlines_.end() || *dpos != task.deadline) {
    distinct_deadlines_.insert(dpos, task.deadline);
  }
  refresh_from(idx, task.deadline);
}

void DbfStarAggregate::remove(const SporadicTask& task) {
  // Locate a member with this exact (C, D, T) among the equal-deadline run.
  // Tied members are value-identical in every array, so removing the first
  // match yields the same arrays regardless of which duplicate departed.
  auto lo = std::lower_bound(deadlines_.begin(), deadlines_.end(),
                             task.deadline);
  std::size_t idx = static_cast<std::size_t>(lo - deadlines_.begin());
  bool found = false;
  for (; idx < deadlines_.size() && deadlines_[idx] == task.deadline; ++idx) {
    if (vol_[idx] == task.wcet && period_[idx] == task.period) {
      found = true;
      break;
    }
  }
  FEDCONS_EXPECTS_MSG(found, "DbfStarAggregate::remove: no such member");

  const auto p = static_cast<std::ptrdiff_t>(idx);
  deadlines_.erase(deadlines_.begin() + p);
  vol_.erase(vol_.begin() + p);
  period_.erase(period_.begin() + p);
  term_a_.erase(term_a_.begin() + p);
  term_b_.erase(term_b_.begin() + p);
  term_mag_.erase(term_mag_.begin() + p);

  // Drop the deadline from the breakpoint list when its last holder left.
  const bool still_present =
      std::binary_search(deadlines_.begin(), deadlines_.end(), task.deadline);
  if (!still_present) {
    const auto dpos = std::lower_bound(
        distinct_deadlines_.begin(), distinct_deadlines_.end(), task.deadline);
    distinct_deadlines_.erase(dpos);
  }
  refresh_from(idx, task.deadline);
}

void DbfStarAggregate::clear() noexcept {
  deadlines_.clear();
  vol_.clear();
  period_.clear();
  prefix_vol_.clear();
  prefix_u_.clear();
  prefix_ud_.clear();
  distinct_deadlines_.clear();
  term_a_.clear();
  term_b_.clear();
  term_mag_.clear();
  pfx_a_.clear();
  pfx_b_.clear();
  pfx_mag_.clear();
  soa_bp_.clear();
  soa_a_.clear();
  soa_b_.clear();
  soa_mag_.clear();
}

void DbfStarAggregate::refresh_from(std::size_t idx, Time d) {
  // Exact entries from idx on folded over the old member at that index (or
  // a shifted one); drop them so the next read refolds from the new arrays.
  if (prefix_vol_.size() > idx) {
    prefix_vol_.resize(idx);
    prefix_u_.resize(idx);
    prefix_ud_.resize(idx);
  }
  const std::size_t n = deadlines_.size();
  pfx_a_.resize(n);
  pfx_b_.resize(n);
  pfx_mag_.resize(n);
  for (std::size_t i = idx; i < n; ++i) {
    if (i == 0) {
      pfx_a_[i] = term_a_[i];
      pfx_b_[i] = term_b_[i];
      pfx_mag_[i] = term_mag_[i];
    } else {
      // Single IEEE additions — deterministic in every TU, so the mirrors are
      // a pure function of the member arrays and rollback restores them bit
      // for bit, like the exact fold.
      pfx_a_[i] = pfx_a_[i - 1] + term_a_[i];
      pfx_b_[i] = pfx_b_[i - 1] + term_b_[i];
      pfx_mag_[i] = pfx_mag_[i - 1] + term_mag_[i];
    }
  }

  // One lane per distinct deadline, taken at the last member holding it.
  // Lanes below d's read members before d's run, whose folds did not change,
  // so only lanes from d's on are rewritten (d's lane itself is gone after a
  // removal of its last holder; the walk then starts at the next one). A
  // deadline beyond the kernel's validated range is not exactly
  // representable as a double, so its lane is poisoned (+inf magnitude →
  // always uncertain → exact fallback at the true Time breakpoint).
  const std::size_t lanes = distinct_deadlines_.size();
  soa_bp_.resize(lanes);
  soa_a_.resize(lanes);
  soa_b_.resize(lanes);
  soa_mag_.resize(lanes);
  std::size_t k = static_cast<std::size_t>(
      std::lower_bound(distinct_deadlines_.begin(), distinct_deadlines_.end(),
                       d) -
      distinct_deadlines_.begin());
  std::size_t i = static_cast<std::size_t>(
      std::lower_bound(deadlines_.begin(), deadlines_.end(), d) -
      deadlines_.begin());
  for (; i < n; ++i) {
    if (i + 1 < n && deadlines_[i + 1] == deadlines_[i]) continue;
    soa_bp_[k] = static_cast<double>(deadlines_[i]);
    soa_a_[k] = pfx_a_[i];
    soa_b_[k] = pfx_b_[i];
    soa_mag_[k] = deadlines_[i] > simd::kDbfMaxMagnitude
                      ? std::numeric_limits<double>::infinity()
                      : pfx_mag_[i];
    ++k;
  }
  FEDCONS_EXPECTS(k == lanes);
}

void DbfStarAggregate::fold_exact_to(std::size_t k) const {
  for (std::size_t i = prefix_vol_.size(); i <= k; ++i) {
    const BigRational u = make_ratio(vol_[i], period_[i]);
    // C·D can exceed int64 for extreme parameters: form it in BigInt.
    const BigRational ud(BigInt(vol_[i]) * BigInt(deadlines_[i]),
                         BigInt(period_[i]));
    if (i == 0) {
      prefix_vol_.emplace_back(vol_[i]);
      prefix_u_.push_back(u);
      prefix_ud_.push_back(ud);
    } else {
      prefix_vol_.push_back(prefix_vol_[i - 1] + BigRational(vol_[i]));
      prefix_u_.push_back(prefix_u_[i - 1] + u);
      prefix_ud_.push_back(prefix_ud_[i - 1] + ud);
    }
  }
}

BigRational DbfStarAggregate::sum_at(Time t) const {
  // Counter contract (see header): one logical DBF* evaluation per member.
  perf_counters().dbf_star_evaluations += deadlines_.size();
  return sum_at_uncounted(t);
}

BigRational DbfStarAggregate::sum_at_uncounted(Time t) const {
  const auto pos = std::upper_bound(deadlines_.begin(), deadlines_.end(), t);
  if (pos == deadlines_.begin()) return BigRational(0);
  const auto k = static_cast<std::size_t>(pos - deadlines_.begin()) - 1;
  fold_exact_to(k);
  return prefix_vol_[k] + prefix_u_[k] * BigRational(t) - prefix_ud_[k];
}

}  // namespace fedcons
