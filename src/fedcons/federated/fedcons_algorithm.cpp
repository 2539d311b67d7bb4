#include "fedcons/federated/fedcons_algorithm.h"

#include <sstream>

#include "fedcons/obs/span_tracer.h"
#include "fedcons/util/check.h"

namespace fedcons {

const char* to_string(FedconsFailure f) noexcept {
  switch (f) {
    case FedconsFailure::kNone: return "accepted";
    case FedconsFailure::kHighDensityPhase: return "high-density-phase";
    case FedconsFailure::kPartitionPhase: return "partition-phase";
  }
  return "?";
}

FedconsResult fedcons_schedule(const TaskSystem& system, int m,
                               const FedconsOptions& options) {
  FEDCONS_EXPECTS(m >= 1);
  FEDCONS_EXPECTS_MSG(system.deadline_class() != DeadlineClass::kArbitrary,
                      "FEDCONS is defined for constrained-deadline systems");
  FEDCONS_SPAN_V("fedcons", "schedule", "m", m);

  FedconsResult result;
  // Provenance is built locally and attached on every exit path; the
  // finalize helper also mirrors the verdict fields into the record.
  std::shared_ptr<FedconsProvenance> prov;
  if (options.record_provenance) {
    prov = std::make_shared<FedconsProvenance>();
    prov->m = m;
  }
  const auto finalize = [&]() {
    if (prov == nullptr) return;
    prov->success = result.success;
    prov->failure = to_string(result.failure);
    prov->failed_task = result.failed_task;
    result.provenance = prov;
  };

  int m_r = m;       // remaining processors (paper, line 1)
  int next_proc = 0;  // global index of the next unassigned processor

  // Phase 1: dedicate processors to each high-density task (lines 2–6).
  for (TaskId i : system.high_density_tasks()) {
    MinprocsOptions scan_options;
    if (prov != nullptr) {
      prov->clusters.push_back(ClusterProvenance{i, m_r, {}});
      scan_options.provenance = &prov->clusters.back().scan;
    }
    auto mp = minprocs(system[i], m_r, options.list_policy, scan_options);
    if (!mp.has_value()) {  // m_i > m_r, or len_i > D_i: FAILURE (line 4)
      result.success = false;
      result.failure = FedconsFailure::kHighDensityPhase;
      result.failed_task = i;
      finalize();
      return result;
    }
    result.clusters.push_back(ClusterAssignment{
        i, next_proc, mp->processors, std::move(mp->sigma)});
    next_proc += mp->processors;
    m_r -= mp->processors;  // line 6
  }

  // Phase 2: partition the low-density tasks on the remainder (line 7).
  const auto low = system.low_density_tasks();
  std::vector<SporadicTask> seq;
  seq.reserve(low.size());
  for (TaskId i : low) seq.push_back(system[i].to_sequential());

  PartitionOptions part_options = options.partition;
  if (prov != nullptr) {
    prov->partition_reached = true;
    prov->shared_processors = m_r;
    prov->low_tasks = low;
    part_options.provenance = &prov->partition;
  }
  PartitionResult part = partition_tasks(seq, m_r, part_options);
  if (!part.success) {
    result.success = false;
    result.failure = FedconsFailure::kPartitionPhase;
    if (part.failed_task < low.size()) {
      result.failed_task = low[part.failed_task];
    }
    finalize();
    return result;
  }

  result.success = true;
  result.failure = FedconsFailure::kNone;
  result.shared_processors = m_r;
  result.first_shared_processor = next_proc;
  result.shared_assignment.resize(part.assignment.size());
  for (std::size_t k = 0; k < part.assignment.size(); ++k) {
    for (std::size_t idx : part.assignment[k]) {
      result.shared_assignment[k].push_back(low[idx]);
    }
  }
  finalize();
  return result;
}

std::string FedconsResult::describe(const TaskSystem& system) const {
  std::ostringstream os;
  if (!success) {
    os << "FEDCONS: FAILURE in " << to_string(failure);
    if (failed_task.has_value()) {
      os << " (task τ" << *failed_task + 1;
      if (!system[*failed_task].name().empty())
        os << " '" << system[*failed_task].name() << "'";
      os << ")";
    }
    os << "\n";
    return os.str();
  }
  os << "FEDCONS: SUCCESS\n";
  for (const auto& c : clusters) {
    os << "  cluster for τ" << c.task + 1 << ": processors ["
       << c.first_processor << ", " << c.first_processor + c.num_processors
       << "), m_i=" << c.num_processors
       << ", sigma makespan=" << c.sigma.makespan()
       << " (D=" << system[c.task].deadline() << ")\n";
  }
  os << "  shared pool: " << shared_processors << " processor(s) starting at "
     << first_shared_processor << "\n";
  for (std::size_t k = 0; k < shared_assignment.size(); ++k) {
    os << "    proc " << first_shared_processor + static_cast<int>(k) << ":";
    if (shared_assignment[k].empty()) os << " (idle)";
    for (TaskId t : shared_assignment[k]) os << " τ" << t + 1;
    os << "\n";
  }
  return os.str();
}

}  // namespace fedcons
