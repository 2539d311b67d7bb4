// PartitionState / IncrementalPartition (federated/partition_state.h):
// rollback exactness (admit-then-release and shrink-then-regrow leave NO
// residue, down to the stored rational representations) and the structural
// invariant state == partition_tasks(residents-in-admission-order) under
// random admit/remove/resize sequences across partition variants.
#include "fedcons/federated/partition_state.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "fedcons/core/io.h"
#include "fedcons/federated/partition.h"
#include "fedcons/util/check.h"
#include "fedcons/util/rng.h"

namespace fedcons {
namespace {

// Representation-exact snapshot of every observable of a PartitionState.
struct BinImage {
  std::vector<std::size_t> ids;
  std::vector<std::string> util_reprs;   // num/den of each prefix value
  std::size_t demand_size = 0;
  std::vector<Time> demand_deadlines;
  std::vector<std::string> demand_reprs;  // num/den of sum_at per deadline
  std::vector<double> demand_mirrors;     // SoA bp, A, B, M per deadline
};

std::string repr(const BigRational& r) {
  return r.num().to_string() + "/" + r.den().to_string();
}

BinImage image_of(const PartitionState& state, int k) {
  BinImage img;
  img.ids = state.bin_ids(k);
  // The utilization fold is inclusive-prefix internally; its observable is
  // the total, whose representation depends on the fold history.
  img.util_reprs.push_back(repr(state.bin_utilization(k)));
  const DbfStarAggregate& demand = state.bin_demand(k);
  img.demand_size = demand.size();
  for (Time d : demand.distinct_deadlines()) {
    img.demand_deadlines.push_back(d);
    img.demand_reprs.push_back(repr(demand.sum_at(d)));
    img.demand_reprs.push_back(repr(demand.sum_at(d * 3 + 1)));
  }
  for (auto mirror : {demand.soa_breakpoints(), demand.soa_prefix_a(),
                      demand.soa_prefix_b(), demand.soa_prefix_mag()}) {
    img.demand_mirrors.insert(img.demand_mirrors.end(), mirror.begin(),
                              mirror.end());
  }
  return img;
}

std::vector<BinImage> image_of(const IncrementalPartition& inc) {
  std::vector<BinImage> out;
  for (int k = 0; k < inc.num_bins(); ++k) {
    out.push_back(image_of(inc.state(), k));
  }
  return out;
}

void expect_same_images(const std::vector<BinImage>& a,
                        const std::vector<BinImage>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t k = 0; k < a.size(); ++k) {
    EXPECT_EQ(a[k].ids, b[k].ids) << "bin " << k;
    EXPECT_EQ(a[k].util_reprs, b[k].util_reprs) << "bin " << k;
    EXPECT_EQ(a[k].demand_size, b[k].demand_size) << "bin " << k;
    EXPECT_EQ(a[k].demand_deadlines, b[k].demand_deadlines) << "bin " << k;
    EXPECT_EQ(a[k].demand_reprs, b[k].demand_reprs) << "bin " << k;
    EXPECT_EQ(a[k].demand_mirrors, b[k].demand_mirrors) << "bin " << k;
  }
}

TEST(PartitionUsesAggregates, MatchesBatchPredicate) {
  PartitionOptions o;
  EXPECT_TRUE(partition_uses_aggregates(o));  // kFull, 1 point
  o.variant = PartitionVariant::kPaperLiteral;
  EXPECT_TRUE(partition_uses_aggregates(o));
  o.variant = PartitionVariant::kFull;
  o.dbf_points = 3;
  EXPECT_FALSE(partition_uses_aggregates(o));
  o.dbf_points = 1;
  o.variant = PartitionVariant::kExactEdf;
  EXPECT_FALSE(partition_uses_aggregates(o));
}

// Admit X then release X: every observable — member lists, the utilization
// fold, the DBF* aggregate contents — must be bit-identical to a timeline in
// which X never arrived, not merely value-equal.
TEST(IncrementalPartition, AdmitThenReleaseLeavesNoResidue) {
  const PartitionOptions options;
  IncrementalPartition inc(3, options);
  // A baseline population with deliberately awkward rationals.
  ASSERT_TRUE(inc.admit(0, SporadicTask(7, 19, 23)).ok);
  ASSERT_TRUE(inc.admit(1, SporadicTask(5, 13, 17)).ok);
  ASSERT_TRUE(inc.admit(2, SporadicTask(11, 29, 31)).ok);
  ASSERT_TRUE(inc.admit(3, SporadicTask(3, 19, 37)).ok);
  const auto before = image_of(inc);

  // The intruder lands mid-order (deadline 20 sits between 19 and 29) so its
  // removal exercises the interior-rollback path, not just pop-from-back.
  ASSERT_TRUE(inc.admit(4, SporadicTask(9, 20, 40)).ok);
  EXPECT_EQ(inc.size(), 5u);
  const PartitionEvent ev = inc.remove(4);
  EXPECT_TRUE(ev.ok);
  expect_same_images(image_of(inc), before);
  EXPECT_EQ(inc.size(), 4u);
}

// Same exactness at the extreme end of the value range (kMaxFieldValue is
// the serialization ceiling 2^50): products like C·D overflow int64 and
// exercise the BigInt lanes; the fold must still roll back exactly.
TEST(IncrementalPartition, RollbackExactAtSaturatingMagnitudes) {
  const Time huge = kMaxFieldValue;  // 2^50
  const PartitionOptions options;
  IncrementalPartition inc(2, options);
  ASSERT_TRUE(inc.admit(0, SporadicTask(huge / 4, huge - 1, huge)).ok);
  ASSERT_TRUE(inc.admit(1, SporadicTask(huge / 8, huge - 3, huge - 2)).ok);
  const auto before = image_of(inc);

  (void)inc.admit(2, SporadicTask(huge / 2 - 7, huge - 2, huge));
  (void)inc.remove(2);
  expect_same_images(image_of(inc), before);

  // And a rejected-looking oversized task (utilization ~1 on both bins):
  // admit applies unconditionally, remove must still be an exact inverse
  // even when the admit left a failed state.
  const PartitionEvent full = inc.admit(3, SporadicTask(huge - 1, huge, huge));
  (void)full;
  (void)inc.remove(3);
  expect_same_images(image_of(inc), before);
  EXPECT_TRUE(inc.ok());
}

// Shrinking the pool unplaces the entries on the cut bins and replays from the
// first of them, which fails on the surviving bins; growing it back must
// re-seat them into representation-identical bins. AdmissionSession relies on
// this when it undoes a rejected high-density admit.
TEST(IncrementalPartition, ShrinkThenRegrowLeavesNoResidue) {
  IncrementalPartition inc(3, PartitionOptions{});
  ASSERT_TRUE(inc.admit(0, SporadicTask(6, 10, 10)).ok);
  ASSERT_TRUE(inc.admit(1, SporadicTask(6, 11, 11)).ok);
  ASSERT_TRUE(inc.admit(2, SporadicTask(6, 12, 12)).ok);
  ASSERT_TRUE(inc.admit(3, SporadicTask(1, 20, 20)).ok);
  ASSERT_EQ(inc.assignment(),
            (std::vector<std::vector<std::size_t>>{{0, 3}, {1}, {2}}));
  const auto before = image_of(inc);

  const PartitionEvent shrink = inc.resize(2);
  EXPECT_FALSE(shrink.ok);
  EXPECT_EQ(shrink.failed_id, 2u);
  EXPECT_EQ(shrink.bins_revalidated, 2u);  // both survivors reject task 2

  const PartitionEvent regrow = inc.resize(3);
  EXPECT_TRUE(regrow.ok);
  expect_same_images(image_of(inc), before);
}

// Online PARTITION is the paper's Fig. 4: first-fit in deadline-monotonic
// order. Best/worst fit and the other orders are batch-only ablations.
TEST(IncrementalPartition, RejectsOtherFitsAndOrdersAtConstruction) {
  PartitionOptions o;
  o.fit = FitStrategy::kBestFit;
  EXPECT_THROW((void)IncrementalPartition(3, o), ContractViolation);
  o.fit = FitStrategy::kWorstFit;
  EXPECT_THROW((void)IncrementalPartition(3, o), ContractViolation);
  o.fit = FitStrategy::kFirstFit;
  o.order = PartitionOrder::kDensityDescending;
  EXPECT_THROW((void)IncrementalPartition(3, o), ContractViolation);
  o.order = PartitionOrder::kUtilizationDescending;
  EXPECT_THROW((void)IncrementalPartition(3, o), ContractViolation);
  o.order = PartitionOrder::kDeadlineMonotonic;
  for (PartitionVariant v :
       {PartitionVariant::kFull, PartitionVariant::kPaperLiteral,
        PartitionVariant::kExactEdf}) {
    o.variant = v;
    EXPECT_NO_THROW((void)IncrementalPartition(3, o));
  }
}

TEST(IncrementalPartition, ZeroBinsReportsEarliestAdmitted) {
  IncrementalPartition inc(0, PartitionOptions{});
  const PartitionEvent first = inc.admit(7, SporadicTask(1, 50, 60));
  EXPECT_FALSE(first.ok);
  // A later-admitted task with an earlier deadline would sort first, but the
  // batch partitioner reports input-order index 0 on the no-bins path — the
  // earliest ADMITTED resident, not the partition-order head.
  (void)inc.admit(9, SporadicTask(1, 10, 60));
  ASSERT_TRUE(inc.failed_id().has_value());
  EXPECT_EQ(*inc.failed_id(), 7u);
}

SporadicTask random_task(Rng& rng) {
  const Time period = rng.uniform_int(10, 400);
  const Time deadline = rng.uniform_int((period + 1) / 2, period);
  const Time wcet = rng.uniform_int(1, std::max<Time>(1, deadline / 2));
  return SporadicTask(wcet, deadline, period);
}

// The invariant itself: after every event, verdict + per-bin membership
// equal the batch partitioner run from scratch over the residents in
// admission order. Exercised across the probe variants.
void run_event_differential(const PartitionOptions& options,
                            std::uint64_t seed) {
  Rng rng(seed);
  IncrementalPartition inc(3, options);
  std::vector<std::size_t> ids;     // admission order
  std::vector<SporadicTask> tasks;  // parallel to ids
  std::size_t next_id = 0;
  int bins = 3;
  for (int event = 0; event < 160; ++event) {
    const double r = rng.uniform01();
    if (r < 0.15) {
      bins = static_cast<int>(rng.uniform_int(0, 5));
      (void)inc.resize(bins);
    } else if (r < 0.45 && !ids.empty()) {
      const auto pick = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(ids.size()) - 1));
      (void)inc.remove(ids[pick]);
      ids.erase(ids.begin() + static_cast<std::ptrdiff_t>(pick));
      tasks.erase(tasks.begin() + static_cast<std::ptrdiff_t>(pick));
    } else {
      const SporadicTask task = random_task(rng);
      (void)inc.admit(next_id, task);
      ids.push_back(next_id++);
      tasks.push_back(task);
    }

    const PartitionResult batch = partition_tasks(tasks, bins, options);
    ASSERT_EQ(inc.ok(), batch.success)
        << "seed " << seed << " event " << event;
    if (batch.success) {
      const auto assignment = inc.assignment();
      ASSERT_EQ(assignment.size(), batch.assignment.size());
      for (std::size_t k = 0; k < assignment.size(); ++k) {
        std::vector<std::size_t> batch_ids;
        for (std::size_t idx : batch.assignment[k]) {
          batch_ids.push_back(ids[idx]);
        }
        ASSERT_EQ(assignment[k], batch_ids)
            << "seed " << seed << " event " << event << " bin " << k;
      }
    } else if (bins > 0) {
      ASSERT_TRUE(inc.failed_id().has_value());
      ASSERT_LT(batch.failed_task, ids.size());
      ASSERT_EQ(*inc.failed_id(), ids[batch.failed_task])
          << "seed " << seed << " event " << event;
    }
  }
}

TEST(IncrementalPartition, DifferentialFirstFitFull) {
  run_event_differential(PartitionOptions{}, 11);
  run_event_differential(PartitionOptions{}, 12);
}

TEST(IncrementalPartition, DifferentialPaperLiteral) {
  PartitionOptions o;
  o.variant = PartitionVariant::kPaperLiteral;
  run_event_differential(o, 21);
}

TEST(IncrementalPartition, DifferentialExactEdf) {
  PartitionOptions o;
  o.variant = PartitionVariant::kExactEdf;
  run_event_differential(o, 31);
}

TEST(IncrementalPartition, DifferentialMultiPointDbf) {
  PartitionOptions o;
  o.dbf_points = 4;  // kFull, demand recomputed per probe
  run_event_differential(o, 71);
}

// The exact folds are caches: reads extend them, and insert/remove must cut
// them back to the first member whose index changed. The library itself only
// inserts in deadline order and rolls back from the end, so this drives the
// other cases directly: out-of-deadline-order inserts (which land mid-array in
// the DBF* aggregate) and removals from the middle of a bin. After every
// operation each bin is read in full — filling every cache — and must match,
// representation for representation, a state built fresh from the surviving
// members in the same order.
TEST(PartitionState, ExactCachesMatchFreshBuildAfterEveryEdit) {
  const PartitionOptions options;
  constexpr int kBins = 2;
  Rng rng(97);
  PartitionState state(kBins, options);
  // Surviving members of each bin in placement order.
  std::vector<std::vector<std::pair<std::size_t, SporadicTask>>> members(
      kBins);
  std::size_t next_id = 0;
  for (int op = 0; op < 200; ++op) {
    const int k = static_cast<int>(rng.uniform_int(0, kBins - 1));
    auto& bin = members[static_cast<std::size_t>(k)];
    if (!bin.empty() && rng.uniform01() < 0.4) {
      const auto pick = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(bin.size()) - 1));
      state.remove(k, bin[pick].first);
      bin.erase(bin.begin() + static_cast<std::ptrdiff_t>(pick));
    } else {
      const SporadicTask task = random_task(rng);
      state.insert(k, next_id, task);
      bin.emplace_back(next_id++, task);
    }

    PartitionState fresh(kBins, options);
    for (int b = 0; b < kBins; ++b) {
      for (const auto& [id, task] : members[static_cast<std::size_t>(b)]) {
        fresh.insert(b, id, task);
      }
    }
    std::vector<BinImage> got;
    std::vector<BinImage> want;
    for (int b = 0; b < kBins; ++b) {
      got.push_back(image_of(state, b));
      want.push_back(image_of(fresh, b));
    }
    SCOPED_TRACE("op " + std::to_string(op));
    expect_same_images(got, want);
    if (::testing::Test::HasFailure()) return;
  }
}

}  // namespace
}  // namespace fedcons
