// MinprocsMemo (federated/minprocs_memo.h): a hit must be a perfect stand-in
// for the real scan — same verdict, μ, σ, provenance trajectory, and logical
// perf counters — for ANY m_r, since entries are keyed by task content only.
#include "fedcons/federated/minprocs_memo.h"

#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "fedcons/gen/taskset_gen.h"
#include "fedcons/util/perf_counters.h"

namespace fedcons {
namespace {

// Four parallel WCET-10 vertices under a tight deadline: δ = 40/20 = 2, so
// the scan starts at μ = 2 and walks up to μ = 4 (LS needs one vertex per
// processor to meet D = 10... with D = 20 it needs 2).
DagTask parallel_task(Time deadline, Time period, Time wcet = 10,
                      int width = 4) {
  DagBuilder g;
  for (int v = 0; v < width; ++v) g.add_vertex(wcet);
  return DagTask(g.build(), deadline, period);
}

// The logical-work lanes a scan pays; the memo-effect lanes are excluded on
// purpose (those are exactly what caching changes).
struct ScanWork {
  std::uint64_t ls = 0;
  std::uint64_t iterations = 0;
  std::uint64_t pruned = 0;
};

template <typename Fn>
ScanWork work_of(Fn&& fn) {
  const PerfCounters before = perf_counters();
  fn();
  const PerfCounters delta = perf_counters() - before;
  return ScanWork{delta.ls_invocations, delta.minprocs_scan_iterations,
                  delta.ls_probes_pruned};
}

void expect_same_provenance(const MinprocsProvenance& a,
                            const MinprocsProvenance& b) {
  EXPECT_EQ(a.scan_lb, b.scan_lb);
  EXPECT_EQ(a.scan_cap, b.scan_cap);
  EXPECT_EQ(a.max_processors, b.max_processors);
  EXPECT_EQ(a.len_exceeds_deadline, b.len_exceeds_deadline);
  EXPECT_EQ(a.satisfied, b.satisfied);
  EXPECT_EQ(a.chosen_mu, b.chosen_mu);
  EXPECT_EQ(a.best_makespan, b.best_makespan);
  EXPECT_EQ(a.best_mu, b.best_mu);
  ASSERT_EQ(a.probes.size(), b.probes.size());
  for (std::size_t i = 0; i < a.probes.size(); ++i) {
    EXPECT_EQ(a.probes[i].mu, b.probes[i].mu);
    EXPECT_EQ(a.probes[i].makespan, b.probes[i].makespan);
  }
}

// A hit must equal the fresh scan on every observable, for several m_r.
TEST(MinprocsMemo, HitMatchesFreshScanExactly) {
  const DagTask task = parallel_task(/*deadline=*/20, /*period=*/30);
  for (int m_r : {1, 2, 3, 4, 9}) {
    MinprocsMemo memo;
    std::optional<MinprocsResult> miss_result, hit_result, fresh_result;
    MinprocsProvenance miss_prov, hit_prov, fresh_prov;
    bool was_hit = true;
    const ScanWork miss_work = work_of([&] {
      miss_result = memo.lookup(task, m_r, &miss_prov, &was_hit);
    });
    EXPECT_FALSE(was_hit);
    const ScanWork hit_work = work_of([&] {
      hit_result = memo.lookup(task, m_r, &hit_prov, &was_hit);
    });
    const ScanWork fresh_work = work_of([&] {
      MinprocsOptions options;
      options.provenance = &fresh_prov;
      fresh_result = minprocs(task, m_r, ListPolicy::kVertexOrder, options);
    });
    // Exhaustion (μ > m_r) is m_r-specific and not cached; only successful
    // and len>D content yields hits.
    const bool cacheable = miss_result.has_value();
    EXPECT_EQ(was_hit, cacheable) << "m_r=" << m_r;

    ASSERT_EQ(hit_result.has_value(), fresh_result.has_value());
    ASSERT_EQ(miss_result.has_value(), fresh_result.has_value());
    if (fresh_result.has_value()) {
      EXPECT_EQ(hit_result->processors, fresh_result->processors);
      EXPECT_EQ(hit_result->sigma.makespan(), fresh_result->sigma.makespan());
      EXPECT_EQ(miss_result->processors, fresh_result->processors);
    }
    expect_same_provenance(miss_prov, fresh_prov);
    expect_same_provenance(hit_prov, fresh_prov);
    // Counter contract: the hit credits exactly the work the scan would pay.
    EXPECT_EQ(hit_work.ls, fresh_work.ls) << "m_r=" << m_r;
    EXPECT_EQ(hit_work.iterations, fresh_work.iterations) << "m_r=" << m_r;
    EXPECT_EQ(hit_work.pruned, fresh_work.pruned) << "m_r=" << m_r;
    EXPECT_EQ(miss_work.ls, fresh_work.ls) << "m_r=" << m_r;
  }
}

// One cached success answers smaller m_r as the real scan would: success
// while μ ≤ m_r, exhaustion below.
TEST(MinprocsMemo, ReplayAcrossProcessorBudgets) {
  const DagTask task = parallel_task(/*deadline=*/10, /*period=*/30);
  MinprocsMemo memo;
  const auto full = memo.lookup(task, 16);
  ASSERT_TRUE(full.has_value());
  const int mu = full->processors;
  ASSERT_GT(mu, 1);

  bool was_hit = false;
  const auto at_mu = memo.lookup(task, mu, nullptr, &was_hit);
  EXPECT_TRUE(was_hit);
  ASSERT_TRUE(at_mu.has_value());
  EXPECT_EQ(at_mu->processors, mu);

  const auto below = memo.lookup(task, mu - 1, nullptr, &was_hit);
  EXPECT_TRUE(was_hit);  // served from the entry, still a definitive no
  EXPECT_FALSE(below.has_value());
  // And it matches the real scan's verdict.
  EXPECT_FALSE(minprocs(task, mu - 1).has_value());
}

TEST(MinprocsMemo, LenExceedingDeadlineIsCached) {
  // Chain of two WCET-10 vertices: len = 20 > D = 15 (T = 30 keeps D ≤ T).
  DagBuilder g;
  const VertexId a = g.add_vertex(10);
  const VertexId b = g.add_vertex(10);
  g.add_edge(a, b);
  const DagTask hopeless(g.build(), /*deadline=*/15, /*period=*/30);
  MinprocsMemo memo;
  bool was_hit = true;
  EXPECT_FALSE(memo.lookup(hopeless, 8, nullptr, &was_hit).has_value());
  EXPECT_FALSE(was_hit);
  MinprocsProvenance prov;
  EXPECT_FALSE(memo.lookup(hopeless, 8, &prov, &was_hit).has_value());
  EXPECT_TRUE(was_hit);
  EXPECT_TRUE(prov.len_exceeds_deadline);
  EXPECT_TRUE(prov.probes.empty());
  EXPECT_EQ(memo.stats().hits, 1u);
  EXPECT_EQ(memo.stats().misses, 1u);
}

TEST(MinprocsMemo, ExhaustionIsNotCached) {
  // μ = 4 needed (four parallel vertices, D = 10), but only 3 offered: the
  // verdict depends on m_r, so it must rescan (miss) every time.
  const DagTask task = parallel_task(/*deadline=*/10, /*period=*/30);
  MinprocsMemo memo;
  bool was_hit = true;
  EXPECT_FALSE(memo.lookup(task, 3, nullptr, &was_hit).has_value());
  EXPECT_FALSE(was_hit);
  EXPECT_FALSE(memo.lookup(task, 3, nullptr, &was_hit).has_value());
  EXPECT_FALSE(was_hit);
  EXPECT_EQ(memo.stats().misses, 2u);
  EXPECT_EQ(memo.stats().hits, 0u);
  EXPECT_EQ(memo.size(), 0u);
}

TEST(MinprocsMemo, LruEviction) {
  MinprocsMemo memo(/*capacity=*/2);
  const DagTask a = parallel_task(20, 30, /*wcet=*/10);
  const DagTask b = parallel_task(20, 30, /*wcet=*/11);
  const DagTask c = parallel_task(22, 30, /*wcet=*/11);
  ASSERT_TRUE(memo.lookup(a, 8).has_value());
  ASSERT_TRUE(memo.lookup(b, 8).has_value());
  EXPECT_EQ(memo.size(), 2u);
  // Touch `a` so `b` is the LRU victim when `c` arrives.
  bool was_hit = false;
  (void)memo.lookup(a, 8, nullptr, &was_hit);
  ASSERT_TRUE(was_hit);
  ASSERT_TRUE(memo.lookup(c, 8).has_value());
  EXPECT_EQ(memo.size(), 2u);
  EXPECT_EQ(memo.stats().evictions, 1u);
  (void)memo.lookup(a, 8, nullptr, &was_hit);
  EXPECT_TRUE(was_hit);  // survived
  (void)memo.lookup(b, 8, nullptr, &was_hit);
  EXPECT_FALSE(was_hit);  // evicted, re-scanned
}

TEST(MinprocsMemo, ClearResetsEntriesButKeepsStats) {
  MinprocsMemo memo;
  const DagTask task = parallel_task(20, 30);
  ASSERT_TRUE(memo.lookup(task, 8).has_value());
  memo.clear();
  EXPECT_EQ(memo.size(), 0u);
  bool was_hit = true;
  ASSERT_TRUE(memo.lookup(task, 8, nullptr, &was_hit).has_value());
  EXPECT_FALSE(was_hit);
}

// Isomorphic-but-relabeled content shares one entry (content addressing).
TEST(MinprocsMemo, ContentAddressing) {
  DagBuilder g1;
  const VertexId x = g1.add_vertex(6);
  const VertexId y = g1.add_vertex(9);
  g1.add_edge(x, y);
  DagBuilder g2;
  const VertexId p = g2.add_vertex(9);
  const VertexId q = g2.add_vertex(6);
  g2.add_edge(q, p);
  const DagTask t1(g1.build(), 16, 20, "one");
  const DagTask t2(g2.build(), 16, 20, "two");
  MinprocsMemo memo;
  ASSERT_TRUE(memo.lookup(t1, 4).has_value());
  bool was_hit = false;
  const auto r = memo.lookup(t2, 4, nullptr, &was_hit);
  EXPECT_TRUE(was_hit);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(memo.size(), 1u);
}

}  // namespace
}  // namespace fedcons
