#include "fedcons/federated/partition.h"

#include <algorithm>
#include <numeric>

#include "fedcons/analysis/edf_uniproc.h"
#include "fedcons/federated/partition_state.h"
#include "fedcons/obs/span_tracer.h"
#include "fedcons/util/check.h"

namespace fedcons {

const char* to_string(PartitionVariant v) noexcept {
  switch (v) {
    case PartitionVariant::kFull: return "full";
    case PartitionVariant::kPaperLiteral: return "paper-literal";
    case PartitionVariant::kExactEdf: return "exact-edf";
  }
  return "?";
}

const char* to_string(FitStrategy f) noexcept {
  switch (f) {
    case FitStrategy::kFirstFit: return "first-fit";
    case FitStrategy::kBestFit: return "best-fit";
    case FitStrategy::kWorstFit: return "worst-fit";
  }
  return "?";
}

const char* to_string(PartitionOrder o) noexcept {
  switch (o) {
    case PartitionOrder::kDeadlineMonotonic: return "deadline-monotonic";
    case PartitionOrder::kDensityDescending: return "density-desc";
    case PartitionOrder::kUtilizationDescending: return "utilization-desc";
  }
  return "?";
}

PartitionResult partition_tasks(std::span<const SporadicTask> tasks,
                                int num_processors,
                                const PartitionOptions& options) {
  FEDCONS_EXPECTS(num_processors >= 0);
  FEDCONS_SPAN_V("partition", "partition_tasks", "m_r", num_processors);
  PartitionProvenance* prov = options.provenance;
  if (prov != nullptr) {
    *prov = PartitionProvenance{};
    prov->num_processors = num_processors;
  }
  PartitionResult result;
  if (tasks.empty()) {
    result.success = true;
    result.assignment.assign(static_cast<std::size_t>(num_processors), {});
    return result;
  }
  if (num_processors == 0) {
    result.success = false;
    result.failed_task = 0;
    if (prov != nullptr) {
      PlacementRecord record;
      record.task_index = 0;
      record.deadline = tasks[0].deadline;
      record.wcet = tasks[0].wcet;
      prov->placements.push_back(std::move(record));
    }
    return result;
  }

  // The placement order and the bins are per-thread scratch, cleared rather
  // than freed, so a steady-state call allocates only its result. Nothing
  // below calls back into partition_tasks, and reset() empties whatever an
  // earlier call on this thread left behind (also one that threw).
  thread_local std::vector<std::size_t> order;
  thread_local PartitionState state;
  order.resize(tasks.size());
  std::iota(order.begin(), order.end(), 0);
  switch (options.order) {
    case PartitionOrder::kDeadlineMonotonic:
      // (deadline, index) is a total order, so this is the stable order.
      std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
        return tasks[a].deadline != tasks[b].deadline
                   ? tasks[a].deadline < tasks[b].deadline
                   : a < b;
      });
      break;
    case PartitionOrder::kDensityDescending:
      std::stable_sort(order.begin(), order.end(),
                       [&](std::size_t a, std::size_t b) {
                         return tasks[b].density() < tasks[a].density();
                       });
      break;
    case PartitionOrder::kUtilizationDescending:
      std::stable_sort(order.begin(), order.end(),
                       [&](std::size_t a, std::size_t b) {
                         return tasks[b].utilization() < tasks[a].utilization();
                       });
      break;
  }

  // The probe logic and per-bin aggregates live in PartitionState (shared
  // with the online admission engine); this loop is the batch driver.
  state.reset(num_processors, options);
  for (std::size_t i : order) {
    FEDCONS_SPAN_V("partition", "place", "task", i);
    PlacementRecord record;
    if (prov != nullptr) {
      record.task_index = i;
      record.deadline = tasks[i].deadline;
      record.wcet = tasks[i].wcet;
    }
    const int chosen =
        state.choose_bin(tasks[i], prov != nullptr ? &record : nullptr);
    if (prov != nullptr) prov->placements.push_back(std::move(record));
    if (chosen < 0) {
      result.success = false;
      result.failed_task = i;
      return result;
    }
    state.insert(chosen, i, tasks[i]);
  }

  result.success = true;
  result.assignment.reserve(static_cast<std::size_t>(state.num_bins()));
  for (int k = 0; k < state.num_bins(); ++k) {
    result.assignment.push_back(state.bin_ids(k));
  }
  return result;
}

bool partition_is_edf_schedulable(std::span<const SporadicTask> tasks,
                                  const PartitionResult& result) {
  FEDCONS_EXPECTS(result.success);
  for (const auto& proc : result.assignment) {
    std::vector<SporadicTask> assigned;
    assigned.reserve(proc.size());
    for (std::size_t i : proc) {
      FEDCONS_EXPECTS(i < tasks.size());
      assigned.push_back(tasks[i]);
    }
    if (!edf_schedulable(assigned)) return false;
  }
  return true;
}

}  // namespace fedcons
