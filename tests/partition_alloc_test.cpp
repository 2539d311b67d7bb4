// Heap allocations of the batch partitioner (federated/partition.h) and of
// FEDCONS around it (federated/fedcons_algorithm.h). The placement order,
// the bins, the density split, the sequential view and the LS workspace are
// per-thread scratch that is cleared rather than freed, so once a call has
// sized them, repeating it on the same thread allocates only what its
// result owns:
//   * partition_tasks: the outer assignment vector plus one vector per
//     non-empty bin, nothing on failure;
//   * fedcons_schedule: the clusters vector and one σ job vector per
//     cluster, plus on success the shared_assignment vector and one vector
//     per non-empty bin.
//
// This binary replaces the global operator new to count allocations, so it
// holds no other suite.
#include <gtest/gtest.h>

#include <cstdlib>
#include <new>
#include <vector>

#include "fedcons/federated/fedcons_algorithm.h"
#include "fedcons/federated/partition.h"
#include "fedcons/gen/presets.h"
#include "fedcons/util/rng.h"

namespace {
std::size_t g_allocations = 0;  // this suite runs on one thread
}  // namespace

void* operator new(std::size_t n) {
  ++g_allocations;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace fedcons {
namespace {

constexpr int kProcessors = 8;

/// A system from the benchmark's batch campaign: the E3 "mixed" preset at
/// normalized utilization `level` on m = 8.
TaskSystem campaign_system(std::uint64_t seed, double level) {
  TaskSetParams p = find_preset("mixed")->params;
  p.total_utilization = level * kProcessors;
  p.utilization_cap = kProcessors;
  Rng rng(seed);
  return generate_task_system(rng, p);
}

/// The low-density tasks of a campaign system.
std::vector<SporadicTask> campaign_low_tasks(std::uint64_t seed, double level) {
  const TaskSystem system = campaign_system(seed, level);
  std::vector<SporadicTask> out;
  for (const TaskId i : system.low_density_tasks()) {
    out.push_back(system[i].to_sequential());
  }
  return out;
}

std::size_t result_allocations(const PartitionResult& r) {
  if (!r.success) return 0;
  std::size_t n = 1;  // the outer assignment vector
  for (const auto& bin : r.assignment) n += bin.empty() ? 0 : 1;
  return n;
}

TEST(PartitionAllocation, RepeatCallAllocatesOnlyItsResult) {
  int accepted = 0;
  int rejected = 0;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    for (const double level : {0.3, 0.6, 0.9}) {
      const std::vector<SporadicTask> tasks = campaign_low_tasks(seed, level);
      for (const int m : {kProcessors, 3}) {
        const PartitionResult first = partition_tasks(tasks, m);
        const std::size_t before = g_allocations;
        const PartitionResult second = partition_tasks(tasks, m);
        const std::size_t allocations = g_allocations - before;
        SCOPED_TRACE("seed " + std::to_string(seed) + " level " +
                     std::to_string(level) + " m " + std::to_string(m) +
                     " tasks " + std::to_string(tasks.size()));
        ASSERT_EQ(second.success, first.success);
        EXPECT_EQ(second.assignment, first.assignment);
        EXPECT_EQ(allocations, result_allocations(second));
        (second.success ? accepted : rejected) += 1;
      }
    }
  }
  // Both result shapes were exercised.
  EXPECT_GT(accepted, 0);
  EXPECT_GT(rejected, 0);
}

std::size_t result_allocations(const FedconsResult& r) {
  std::size_t n = r.clusters.capacity() > 0 ? 1 : 0;
  for (const ClusterAssignment& c : r.clusters) {
    n += c.sigma.num_jobs() > 0 ? 1 : 0;
  }
  if (!r.success) return n;
  n += r.shared_assignment.capacity() > 0 ? 1 : 0;
  for (const auto& bin : r.shared_assignment) n += bin.empty() ? 0 : 1;
  return n;
}

TEST(FedconsAllocation, RepeatCallAllocatesOnlyItsResult) {
  int accepted = 0;
  int rejected_high = 0;
  int rejected_partition = 0;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    for (const double level : {0.1, 0.3, 0.5, 0.7, 0.9}) {
      const TaskSystem system = campaign_system(seed, level);
      for (const int m : {kProcessors, 3}) {
        const FedconsResult first = fedcons_schedule(system, m);
        const std::size_t before = g_allocations;
        const FedconsResult second = fedcons_schedule(system, m);
        const std::size_t allocations = g_allocations - before;
        SCOPED_TRACE("seed " + std::to_string(seed) + " level " +
                     std::to_string(level) + " m " + std::to_string(m) +
                     " tasks " + std::to_string(system.size()));
        ASSERT_EQ(second.success, first.success);
        EXPECT_EQ(second.failure, first.failure);
        EXPECT_EQ(second.failed_task, first.failed_task);
        ASSERT_EQ(second.clusters.size(), first.clusters.size());
        for (std::size_t k = 0; k < first.clusters.size(); ++k) {
          EXPECT_EQ(second.clusters[k].task, first.clusters[k].task);
          EXPECT_EQ(second.clusters[k].num_processors,
                    first.clusters[k].num_processors);
        }
        EXPECT_EQ(second.shared_assignment, first.shared_assignment);
        EXPECT_EQ(allocations, result_allocations(second));
        switch (second.failure) {
          case FedconsFailure::kNone: ++accepted; break;
          case FedconsFailure::kHighDensityPhase: ++rejected_high; break;
          case FedconsFailure::kPartitionPhase: ++rejected_partition; break;
        }
      }
    }
  }
  // Every result shape was exercised.
  EXPECT_GT(accepted, 0);
  EXPECT_GT(rejected_high, 0);
  EXPECT_GT(rejected_partition, 0);
}

}  // namespace
}  // namespace fedcons
