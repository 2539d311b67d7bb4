#include "fedcons/federated/partition_state.h"

#include <algorithm>
#include <limits>

#include "fedcons/analysis/edf_uniproc.h"
#include "fedcons/obs/metrics.h"
#include "fedcons/simd/dbf_kernel.h"
#include "fedcons/util/check.h"
#include "fedcons/util/perf_counters.h"

namespace fedcons {

bool partition_uses_aggregates(const PartitionOptions& options) {
  // The aggregate models the 1-point approximation exactly, so kFull
  // qualifies only at dbf_points == 1 (the default).
  switch (options.variant) {
    case PartitionVariant::kPaperLiteral: return true;
    case PartitionVariant::kFull: return std::max(1, options.dbf_points) == 1;
    case PartitionVariant::kExactEdf: return false;
  }
  return false;
}

namespace {

// replay()'s per-bin change flags since the event began; a bin that lost
// and gained carries both.
constexpr char kGained = 1;  // later acceptances of the bin are re-probed
constexpr char kLost = 2;    // later rejections by the bin are re-probed

/// Fill a demand-rejection diagnosis (no-op on nullptr): the failing DBF*
/// breakpoint plus the exact demand-vs-capacity comparison.
void diagnose_demand(BinAttemptRecord* diag, const BigRational& demand,
                     Time breakpoint) {
  if (diag == nullptr) return;
  diag->reason = BinRejectReason::kDemand;
  diag->breakpoint = breakpoint;
  diag->detail = "DBF* demand " + demand.to_string() + " > capacity " +
                 std::to_string(breakpoint) + " at breakpoint t=" +
                 std::to_string(breakpoint);
}

/// Exact Σ_bin DBF* + candidate term at bp — the certified scan's fallback
/// and diagnosis source. Uncounted: the scan owns every counter credit, so
/// re-deriving a lane exactly cannot double-bill it.
BigRational exact_probe_demand(const DbfStarAggregate& agg,
                               const SporadicTask& t, Time bp,
                               bool paper_literal) {
  BigRational sum = agg.sum_at_uncounted(bp);
  if (paper_literal) {
    sum += BigRational(t.wcet);
  } else {
    BigInt num =
        BigInt(t.wcet) * BigInt(checked_add(t.period, bp - t.deadline));
    sum += BigRational(std::move(num), BigInt(t.period));
  }
  return sum;
}

/// The aggregate acceptance probe, decided through the certified-double
/// kernel (simd/dbf_kernel.h). Walks the identical breakpoint sequence the
/// exact loop walks — D_cand, then every distinct member deadline above it
/// (kFull; kPaperLiteral checks D_cand only) — stopping at the first
/// violation, with identical verdicts, rejection diagnoses, and
/// dbf_star_evaluations credits (size()+1 per breakpoint checked for kFull,
/// size() for kPaperLiteral: the candidate term is uncounted there, matching
/// the per-member sums of the recompute-per-probe reference). Lanes the
/// margin cannot separate fall back to the exact rational comparison, so
/// only the arithmetic route — never the decision — depends on floating
/// point.
bool certified_demand_scan(const DbfStarAggregate& agg, const SporadicTask& t,
                           bool paper_literal, BinAttemptRecord* diag) {
  const std::size_t n = agg.size();
  const std::uint64_t credit =
      static_cast<std::uint64_t>(n) + (paper_literal ? 0 : 1);
  const simd::DbfCand cand =
      paper_literal ? simd::dbf_constant_term(t.wcet)
                    : simd::dbf_affine_term(t.wcet, t.deadline, t.period);
  const double eps_n = simd::kDbfEps * static_cast<double>(n + 16);

  std::uint64_t checked = 0;
  std::uint64_t vectorized = 0;
  // Scan SoA lanes [begin, end); time_at maps a lane index to its exact Time
  // breakpoint (lane doubles may be poisoned, the Times never are).
  const auto scan = [&](const double* bp, const double* A, const double* B,
                        const double* M, int begin, int end,
                        auto time_at) -> bool {
    int i = begin;
    while (i < end) {
      simd::LaneClass cls;
      const int stop = simd::dbf_scan(bp, A, B, M, i, end, cand, eps_n, &cls);
      checked += static_cast<std::uint64_t>(stop - i);
      vectorized += static_cast<std::uint64_t>(stop - i);
      if (stop == end) return true;  // every remaining lane certainly fits
      ++checked;
      const Time bpt = time_at(stop);
      if (cls == simd::LaneClass::kReject) {
        ++vectorized;
        if (diag != nullptr) {
          diagnose_demand(diag, exact_probe_demand(agg, t, bpt, paper_literal),
                          bpt);
        }
        return false;
      }
      // Uncertain: decide this one lane exactly, then resume after it.
      const BigRational sum = exact_probe_demand(agg, t, bpt, paper_literal);
      if (!(sum <= BigRational(bpt))) {
        diagnose_demand(diag, sum, bpt);
        return false;
      }
      i = stop + 1;
    }
    return true;
  };

  // Head lane: bp = D_cand against the member prefix with D_j ≤ D_cand.
  const auto dds = agg.distinct_deadlines();
  const auto pa = agg.soa_prefix_a();
  const auto pb = agg.soa_prefix_b();
  const auto pm = agg.soa_prefix_mag();
  const int k0 =
      static_cast<int>(std::upper_bound(dds.begin(), dds.end(), t.deadline) -
                       dds.begin()) -
      1;
  double hbp = static_cast<double>(t.deadline);
  double ha = k0 >= 0 ? pa[static_cast<std::size_t>(k0)] : 0.0;
  double hb = k0 >= 0 ? pb[static_cast<std::size_t>(k0)] : 0.0;
  double hm = k0 >= 0 ? pm[static_cast<std::size_t>(k0)] : 0.0;
  if (t.deadline < 0 || t.deadline > simd::kDbfMaxMagnitude) {
    hm = std::numeric_limits<double>::infinity();  // bp not exact: poison
  }
  bool ok = scan(&hbp, &ha, &hb, &hm, 0, 1, [&](int) { return t.deadline; });
  if (ok && !paper_literal) {
    ok = scan(agg.soa_breakpoints().data(), pa.data(), pb.data(), pm.data(),
              k0 + 1, static_cast<int>(dds.size()),
              [&](int j) { return dds[static_cast<std::size_t>(j)]; });
  }
  perf_counters().dbf_star_evaluations += checked * credit;
  perf_counters().simd_breakpoints_vectorized += vectorized;
  return ok;
}

}  // namespace

const BigRational PartitionState::kZeroUtil{};

PartitionState::PartitionState(int num_bins, const PartitionOptions& options) {
  reset(num_bins, options);
}

void PartitionState::Bin::clear() noexcept {
  ids.clear();
  tasks.clear();
  util_prefix.clear();
  util_prefix_d.clear();
  demand.clear();
}

void PartitionState::Bin::refold_from(std::size_t idx) {
  // bin_utilization refolds the exact cache with the identical
  // left-to-right accumulation, so representations match a fresh build.
  if (util_prefix.size() > idx) util_prefix.resize(idx);
  util_prefix_d.resize(tasks.size());
  for (std::size_t j = idx; j < tasks.size(); ++j) {
    util_prefix_d[j] = (j == 0 ? 0.0 : util_prefix_d[j - 1]) +
                       simd::util_term(tasks[j].wcet, tasks[j].period);
  }
}

void PartitionState::reset(int num_bins, const PartitionOptions& options) {
  FEDCONS_EXPECTS(num_bins >= 0);
  for (int k = 0; k < num_bins_; ++k) {
    bins_[static_cast<std::size_t>(k)].clear();
  }
  options_ = options;
  num_bins_ = 0;
  set_num_bins(num_bins);
}

void PartitionState::set_num_bins(int n) {
  FEDCONS_EXPECTS(n >= 0);
  for (int k = n; k < num_bins_; ++k) {
    FEDCONS_EXPECTS_MSG(bins_[static_cast<std::size_t>(k)].ids.empty(),
                        "PartitionState::set_num_bins: cut bin not empty");
  }
  // Bins past num_bins_ are always empty, so growing only exposes them.
  if (bins_.size() < static_cast<std::size_t>(n)) {
    bins_.resize(static_cast<std::size_t>(n));
  }
  num_bins_ = n;
}

bool PartitionState::fits(int bin, const SporadicTask& t,
                          BinAttemptRecord* diag) const {
  FEDCONS_EXPECTS(bin >= 0 && bin < num_bins());
  const Bin& b = bins_[static_cast<std::size_t>(bin)];

  if (options_.variant == PartitionVariant::kExactEdf) {
    trial_scratch_.clear();
    trial_scratch_.reserve(b.tasks.size() + 1);
    for (const SporadicTask& m : b.tasks) trial_scratch_.push_back(m);
    trial_scratch_.push_back(t);
    if (edf_schedulable(trial_scratch_)) return true;
    if (diag != nullptr) {
      diag->reason = BinRejectReason::kExactEdf;
      diag->detail = "exact EDF test rejects bin ∪ {candidate}";
    }
    return false;
  }

  if (options_.variant == PartitionVariant::kPaperLiteral) {
    // The paper's Fig. 4 line 3, verbatim:
    //   Σ_j DBF*(τ_j, D_i) + vol_i ≤ D_i.
    return certified_demand_scan(b.demand, t, /*paper_literal=*/true, diag);
  }

  // kFull — Baruah–Fisher with a k-point demand approximation:
  // long-run capacity first, through the certified-double screen over the
  // bin's double utilization fold (same margin family as the demand kernel;
  // exact fallback inside the band)…
  const double us = (b.util_prefix_d.empty() ? 0.0 : b.util_prefix_d.back()) +
                    simd::util_term(t.wcet, t.period);
  const double uerr =
      simd::kDbfEps * static_cast<double>(b.tasks.size() + 16) * us;
  bool util_reject;
  if (us + uerr <= 1.0) {
    util_reject = false;
  } else if (us - uerr > 1.0) {
    util_reject = true;
  } else {
    util_reject = bin_utilization(bin) + t.utilization() > BigRational(1);
  }
  if (util_reject) {
    if (diag != nullptr) {
      diag->reason = BinRejectReason::kUtilization;
      diag->detail = "utilization " +
                     (bin_utilization(bin) + t.utilization()).to_string() +
                     " > 1 with candidate";
    }
    return false;
  }
  // …then the demand condition at every slope breakpoint of the summed
  // k-point approximation over bin ∪ {candidate}. Between breakpoints the
  // sum is linear with slope ≤ Σu ≤ 1 (checked above), so breakpoint
  // verification certifies all t. Breakpoints strictly below the candidate's
  // deadline are unchanged by the placement (the candidate contributes 0
  // there) and were certified when their tasks were admitted.
  if (partition_uses_aggregates(options_)) {
    // points == 1: breakpoints are exactly the deadlines of bin ∪ {cand},
    // evaluated ≥ D_cand in ascending order — D_cand itself (dedup'd with
    // equal member deadlines), then every member deadline above it, stopping
    // at the first violation. Decided through the certified kernel.
    return certified_demand_scan(b.demand, t, /*paper_literal=*/false, diag);
  }
  const int points = std::max(1, options_.dbf_points);
  std::vector<SporadicTask> members;
  members.reserve(b.tasks.size() + 1);
  for (const SporadicTask& m : b.tasks) members.push_back(m);
  members.push_back(t);
  Time horizon = 0;
  for (const auto& task : members) {
    horizon = std::max(
        horizon, checked_add(task.deadline,
                             checked_mul(static_cast<Time>(points - 1),
                                         task.period)));
  }
  for (Time bp : dbf_approx_breakpoints(members, points, horizon)) {
    if (bp < t.deadline) continue;
    BigRational sum;
    for (const auto& task : members) sum += dbf_approx_k(task, bp, points);
    if (sum > BigRational(bp)) {
      diagnose_demand(diag, sum, bp);
      return false;
    }
  }
  return true;
}

int PartitionState::choose_bin(const SporadicTask& t, PlacementRecord* record,
                               std::uint64_t* probed) const {
  int count = 0;
  int chosen = -1;
  for (int k = 0; k < num_bins(); ++k) {
    BinAttemptRecord attempt;
    attempt.bin = k;
    ++count;
    const bool ok = fits(k, t, record != nullptr ? &attempt : nullptr);
    if (record != nullptr) {
      attempt.fits = ok;
      record->attempts.push_back(std::move(attempt));
    }
    if (!ok) continue;
    if (options_.fit == FitStrategy::kFirstFit) {
      chosen = k;
      break;
    }
    if (chosen < 0) {
      chosen = k;
      continue;
    }
    const BigRational& best = bin_utilization(chosen);
    const BigRational& cur = bin_utilization(k);
    if (options_.fit == FitStrategy::kBestFit && best < cur) {
      chosen = k;
    } else if (options_.fit == FitStrategy::kWorstFit && cur < best) {
      chosen = k;
    }
  }
  obs::observe_partition_bins_touched(count);
  if (record != nullptr) record->chosen_bin = chosen;
  if (probed != nullptr) *probed = static_cast<std::uint64_t>(count);
  return chosen;
}

void PartitionState::insert(int bin, std::size_t id, const SporadicTask& t) {
  FEDCONS_EXPECTS(bin >= 0 && bin < num_bins());
  Bin& b = bins_[static_cast<std::size_t>(bin)];
  b.ids.push_back(id);
  b.tasks.push_back(t);
  // Appending leaves every cached exact prefix entry valid; the new one is
  // folded when bin_utilization() next reads the total.
  b.util_prefix_d.push_back(
      (b.util_prefix_d.empty() ? 0.0 : b.util_prefix_d.back()) +
      simd::util_term(t.wcet, t.period));
  if (partition_uses_aggregates(options_)) b.demand.insert(t);
}

void PartitionState::insert_at(int bin, std::size_t index, std::size_t id,
                               const SporadicTask& t) {
  FEDCONS_EXPECTS(bin >= 0 && bin < num_bins());
  Bin& b = bins_[static_cast<std::size_t>(bin)];
  FEDCONS_EXPECTS(index <= b.ids.size());
  const auto at = static_cast<std::ptrdiff_t>(index);
  b.ids.insert(b.ids.begin() + at, id);
  b.tasks.insert(b.tasks.begin() + at, t);
  b.refold_from(index);
  if (partition_uses_aggregates(options_)) b.demand.insert(t);
}

void PartitionState::remove(int bin, std::size_t id) {
  FEDCONS_EXPECTS(bin >= 0 && bin < num_bins());
  Bin& b = bins_[static_cast<std::size_t>(bin)];
  // Search from the back: online replays unplace members back-to-front, so
  // the match is typically the last element.
  std::size_t idx = b.ids.size();
  for (std::size_t j = b.ids.size(); j-- > 0;) {
    if (b.ids[j] == id) {
      idx = j;
      break;
    }
  }
  FEDCONS_EXPECTS_MSG(idx < b.ids.size(),
                      "PartitionState::remove: no such member");
  const SporadicTask departed = b.tasks[idx];
  b.ids.erase(b.ids.begin() + static_cast<std::ptrdiff_t>(idx));
  b.tasks.erase(b.tasks.begin() + static_cast<std::ptrdiff_t>(idx));
  b.refold_from(idx);
  if (partition_uses_aggregates(options_)) b.demand.remove(departed);
}

const std::vector<std::size_t>& PartitionState::bin_ids(int k) const {
  FEDCONS_EXPECTS(k >= 0 && k < num_bins());
  return bins_[static_cast<std::size_t>(k)].ids;
}

const std::vector<SporadicTask>& PartitionState::bin_tasks(int k) const {
  FEDCONS_EXPECTS(k >= 0 && k < num_bins());
  return bins_[static_cast<std::size_t>(k)].tasks;
}

const BigRational& PartitionState::bin_utilization(int k) const {
  FEDCONS_EXPECTS(k >= 0 && k < num_bins());
  const Bin& b = bins_[static_cast<std::size_t>(k)];
  if (b.tasks.empty()) return kZeroUtil;
  // Extend the canonical left fold prefix[j] = prefix[j-1] + u_j (from 0/1),
  // exactly the accumulation sequence the batch loop performs.
  for (std::size_t j = b.util_prefix.size(); j < b.tasks.size(); ++j) {
    BigRational acc = j == 0 ? kZeroUtil : b.util_prefix[j - 1];
    acc += b.tasks[j].utilization();
    b.util_prefix.push_back(std::move(acc));
  }
  return b.util_prefix.back();
}

const DbfStarAggregate& PartitionState::bin_demand(int k) const {
  FEDCONS_EXPECTS(k >= 0 && k < num_bins());
  return bins_[static_cast<std::size_t>(k)].demand;
}

std::size_t PartitionState::total_members() const noexcept {
  std::size_t n = 0;
  for (int k = 0; k < num_bins_; ++k) {
    n += bins_[static_cast<std::size_t>(k)].ids.size();
  }
  return n;
}

IncrementalPartition::IncrementalPartition(int num_bins,
                                           const PartitionOptions& options)
    : state_(num_bins, options) {
  FEDCONS_EXPECTS_MSG(options.fit == FitStrategy::kFirstFit &&
                          options.order == PartitionOrder::kDeadlineMonotonic,
                      "IncrementalPartition: online PARTITION is first-fit in "
                      "deadline-monotonic order");
}

std::size_t IncrementalPartition::position_of(std::size_t id) const {
  for (std::size_t i = 0; i < order_.size(); ++i) {
    if (order_[i].id == id) return i;
  }
  FEDCONS_EXPECTS_MSG(false, "IncrementalPartition: no resident with that id");
  return order_.size();
}

PartitionEvent IncrementalPartition::replay(std::size_t pos, int lost_bin,
                                            bool suffix_placed) {
  const int nb = state_.num_bins();
  dirty_.assign(static_cast<std::size_t>(nb), 0);
  synced_.assign(static_cast<std::size_t>(nb), 0);
  fail_at_ = std::nullopt;

  // Flags only accumulate during a walk, so the lowest lost bin only falls:
  // rejections below an entry's bin stand iff none of them lost a member.
  int lowest_lost = nb;
  int dirty_bins = 0;
  const auto mark = [&](int k, char change) {
    char& d = dirty_[static_cast<std::size_t>(k)];
    if (d == 0) ++dirty_bins;
    d = static_cast<char>(d | change);
    if (change == kLost) lowest_lost = std::min(lowest_lost, k);
  };
  if (lost_bin >= 0) mark(lost_bin, kLost);

  // Bring bin k to the walk frontier: unplace members the walk has not
  // reached yet (they re-seat, or move, when their position comes up). Bin
  // members sit in order-position order, so walking the order back from
  // its end pops each one as the cheap last-member case of
  // PartitionState::remove, and the walk ends once the bin's last member
  // has a deadline below entry i's. Syncing alone does not dirty a bin —
  // its membership at positions already walked is unchanged, so pre-event
  // decisions about it still stand.
  std::size_t displaced = 0;  // entries past the frontier a sync unplaced
  const auto sync = [&](int k, std::size_t i) {
    char& flag = synced_[static_cast<std::size_t>(k)];
    if (flag != 0) return;
    flag = 1;
    const std::vector<SporadicTask>& members = state_.bin_tasks(k);
    const Time frontier = order_[i].task.deadline;
    for (std::size_t j = order_.size(); j-- > i;) {
      if (members.empty() || members.back().deadline < frontier) break;
      Placement& q = order_[j];
      if (q.bin != k) continue;
      state_.remove(k, q.id);
      q.bin = -1;
      if (j > i) ++displaced;
    }
  };

  // The whole-bin certificate is for an admission into a fully placed
  // order: the newcomer has the largest sequence number, so every later
  // member of its bin has a strictly larger deadline. kPaperLiteral's test
  // reads D_cand only, so a whole-bin probe certifies nothing after it.
  const bool certify =
      suffix_placed &&
      state_.options().variant != PartitionVariant::kPaperLiteral;
  std::size_t walked = order_.size();
  PartitionEvent ev;
  for (std::size_t i = pos; i < order_.size(); ++i) {
    Placement& p = order_[i];
    ++ev.placements_replayed;
    const int pb = (p.prev_bin >= 0 && p.prev_bin < nb) ? p.prev_bin : -1;
    if (p.bin < 0 && pb >= 0) --displaced;  // reached: placed below

    // Standing decision: rejections below prev_bin hold unless a bin there
    // lost a member, and the acceptance at prev_bin holds unless that bin
    // gained one.
    if (pb >= 0 && (dirty_[static_cast<std::size_t>(pb)] & kGained) == 0 &&
        lowest_lost >= pb) {
      if (p.bin < 0) state_.insert(pb, p.id, p.task);  // displaced by a sync
      p.bin = pb;
    } else {
      // Something at or below prev_bin diverged (or the entry was never
      // placed): probe. The member's own contribution never pollutes a
      // prefix probe: probing a foreign bin doesn't see it, and probing its
      // own bin syncs that bin first, which unplaces it.
      const bool newest = certify && pb < 0 && p.seq + 1 == next_seq_;
      int chosen = -1;
      bool in_place = false;
      std::uint64_t probes_here = 0;
      for (int k = 0; k < nb; ++k) {
        const char d = dirty_[static_cast<std::size_t>(k)];
        if (pb >= 0) {
          if (k < pb && (d & kLost) == 0) continue;  // rejection stands
          if (k == pb && (d & kGained) == 0) {       // acceptance stands
            chosen = k;
            break;
          }
        }
        if (newest && synced_[static_cast<std::size_t>(k)] == 0) {
          // Whole-bin certificate: probe against every member still
          // placed. Each later member's own test sees a subset of those
          // members at a subset of the breakpoints checked here (all ≥ its
          // deadline > the newcomer's), and every term is non-negative, so
          // acceptance certifies them too. For later rejections the bin
          // only grew, so its flags stay as they are.
          const std::vector<SporadicTask>& members = state_.bin_tasks(k);
          const auto at = static_cast<std::size_t>(
              std::upper_bound(members.begin(), members.end(),
                               p.task.deadline,
                               [](Time d_new, const SporadicTask& m) {
                                 return d_new < m.deadline;
                               }) -
              members.begin());
          ++probes_here;
          if (state_.fits(k, p.task)) {
            state_.insert_at(k, at, p.id, p.task);
            p.bin = k;
            chosen = k;
            in_place = true;
            break;
          }
          // Without members past the walk the whole bin is the prefix, so
          // the rejection is real; otherwise decide on the prefix.
          if (at == members.size()) continue;
        }
        sync(k, i);
        ++probes_here;
        if (state_.fits(k, p.task)) {
          chosen = k;
          break;
        }
      }
      // Fresh entries run the full selection loop; feed the same
      // bins-touched metric choose_bin reports for the batch partitioner.
      if (pb < 0) {
        obs::observe_partition_bins_touched(static_cast<int>(probes_here));
      }
      ev.bins_revalidated += probes_here;
      if (chosen < 0) {
        fail_at_ = i;
        break;
      }
      // p.bin is either -1 (fresh, or displaced by a sync), still prev_bin
      // (acceptance stood, or a dirty bin below prev_bin accepted first),
      // or already the chosen bin (inserted in place). A target probed
      // against its prefix was synced above, so appending keeps placement
      // order.
      if (p.bin != chosen) {
        if (p.bin >= 0) state_.remove(p.bin, p.id);
        state_.insert(chosen, p.id, p.task);
        p.bin = chosen;
      }
      if (chosen != pb) {
        if (!in_place) mark(chosen, kGained);
        if (pb >= 0) mark(pb, kLost);
      }
    }
    if (suffix_placed && dirty_bins == 0 && displaced == 0) {
      walked = i + 1;  // every later decision stands, in place
      break;
    }
  }

  if (fail_at_.has_value()) {
    // Batch equivalence: the partitioner stops at the failure point, so
    // nothing at or after it is placed. Back to front, each removal is its
    // bin's last member.
    for (std::size_t j = order_.size(); j-- > *fail_at_;) {
      Placement& q = order_[j];
      if (q.bin >= 0) {
        state_.remove(q.bin, q.id);
        q.bin = -1;
      }
    }
  }

  for (std::size_t i = pos; i < walked; ++i) {
    order_[i].prev_bin = order_[i].bin;
  }
  perf_counters().partition_bins_revalidated += ev.bins_revalidated;
  ev.ok = ok();
  if (!ev.ok) ev.failed_id = *failed_id();
  return ev;
}

PartitionEvent IncrementalPartition::admit(std::size_t id,
                                           const SporadicTask& task) {
  for (const Placement& p : order_) {
    FEDCONS_EXPECTS_MSG(p.id != id,
                        "IncrementalPartition::admit: duplicate id");
  }
  const auto it = std::upper_bound(
      order_.begin(), order_.end(), task,
      [](const SporadicTask& t, const Placement& p) {
        return t.deadline < p.task.deadline;
      });
  const std::size_t pos = static_cast<std::size_t>(it - order_.begin());

  Placement entry;
  entry.id = id;
  entry.task = task;
  entry.seq = next_seq_++;
  order_.insert(order_.begin() + static_cast<std::ptrdiff_t>(pos),
                std::move(entry));

  if (fail_at_.has_value() && *fail_at_ < pos) {
    // The batch run fails before ever reaching the new task: it joins the
    // unplaced suffix and the verdict is unchanged.
    PartitionEvent ev;
    ev.ok = false;
    ev.failed_id = *failed_id();
    return ev;
  }
  return replay(pos, -1, !fail_at_.has_value());
}

PartitionEvent IncrementalPartition::remove(std::size_t id) {
  const std::size_t pos = position_of(id);
  const Placement removed = order_[pos];
  order_.erase(order_.begin() + static_cast<std::ptrdiff_t>(pos));

  if (removed.bin < 0) {
    // Unplaced: either the failure point itself or beyond it.
    FEDCONS_ASSERT(fail_at_.has_value() && pos >= *fail_at_);
    if (pos == *fail_at_) {
      // The blocking task is gone; its successors (all unplaced) may now fit.
      return replay(pos, -1, false);
    }
    PartitionEvent ev;
    ev.ok = false;
    ev.failed_id = *failed_id();
    return ev;
  }

  // The bin only lost: its later members' acceptances stand, and only the
  // entries it rejected are re-probed against it.
  state_.remove(removed.bin, removed.id);
  return replay(pos, removed.bin, !fail_at_.has_value());
}

PartitionEvent IncrementalPartition::resize(int num_bins) {
  FEDCONS_EXPECTS(num_bins >= 0);
  const int old = state_.num_bins();
  PartitionEvent ev;
  if (num_bins > old) {
    // First-fit placements never probe past their chosen bin, so existing
    // placements stand; only a failed entry gets a fresh chance.
    state_.set_num_bins(num_bins);
    if (fail_at_.has_value()) return replay(*fail_at_, -1, false);
  } else if (num_bins < old) {
    // Shrink: entries on surviving bins keep their places; entries on cut
    // bins are unplaced. The first of those was rejected by every surviving
    // bin against exactly the members those bins still hold before it, so
    // the replay from it probes each surviving bin once and fails there —
    // the batch run's verdict on the smaller pool.
    std::size_t pos = order_.size();
    for (std::size_t i = order_.size(); i-- > 0;) {
      Placement& p = order_[i];
      if (p.bin < num_bins) continue;
      state_.remove(p.bin, p.id);
      p.bin = -1;
      pos = i;
    }
    state_.set_num_bins(num_bins);
    if (pos < order_.size()) return replay(pos, -1, false);
  }
  ev.ok = ok();
  if (!ev.ok) ev.failed_id = *failed_id();
  return ev;
}

std::optional<std::size_t> IncrementalPartition::failed_id() const {
  if (!fail_at_.has_value()) return std::nullopt;
  if (state_.num_bins() == 0 && !order_.empty()) {
    // The batch partitioner reports the first *input-order* task when there
    // are no processors at all; mirror it via admission sequence numbers.
    std::size_t best = 0;
    for (std::size_t i = 1; i < order_.size(); ++i) {
      if (order_[i].seq < order_[best].seq) best = i;
    }
    return order_[best].id;
  }
  return order_[*fail_at_].id;
}

std::vector<std::vector<std::size_t>> IncrementalPartition::assignment() const {
  FEDCONS_EXPECTS(ok());
  std::vector<std::vector<std::size_t>> out;
  out.reserve(static_cast<std::size_t>(state_.num_bins()));
  for (int k = 0; k < state_.num_bins(); ++k) out.push_back(state_.bin_ids(k));
  return out;
}

std::vector<std::size_t> IncrementalPartition::order_ids() const {
  std::vector<std::size_t> out;
  out.reserve(order_.size());
  for (const Placement& p : order_) out.push_back(p.id);
  return out;
}

}  // namespace fedcons
