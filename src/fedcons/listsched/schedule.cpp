#include "fedcons/listsched/schedule.h"

#include <algorithm>

#include "fedcons/util/check.h"

namespace fedcons {

TemplateSchedule::TemplateSchedule(int num_processors,
                                   std::vector<ScheduledJob> jobs)
    : num_processors_(num_processors), jobs_(std::move(jobs)) {
  FEDCONS_EXPECTS(num_processors_ >= 1);
  std::sort(jobs_.begin(), jobs_.end(),
            [](const ScheduledJob& a, const ScheduledJob& b) {
              return a.vertex < b.vertex;
            });
  for (std::size_t i = 0; i < jobs_.size(); ++i) {
    const ScheduledJob& j = jobs_[i];
    FEDCONS_EXPECTS_MSG(j.start >= 0 && j.finish >= j.start,
                        "malformed schedule slot");
    FEDCONS_EXPECTS_MSG(j.processor >= 0 && j.processor < num_processors_,
                        "processor index out of range");
    FEDCONS_EXPECTS_MSG(i == 0 || jobs_[i - 1].vertex != j.vertex,
                        "duplicate vertex in schedule");
    makespan_ = std::max(makespan_, j.finish);
  }
}

const ScheduledJob& TemplateSchedule::job_for(VertexId v) const {
  const auto it = std::lower_bound(
      jobs_.begin(), jobs_.end(), v,
      [](const ScheduledJob& j, VertexId x) { return j.vertex < x; });
  FEDCONS_EXPECTS(it != jobs_.end() && it->vertex == v);
  return *it;
}

double TemplateSchedule::occupancy() const noexcept {
  if (makespan_ == 0) return 0.0;
  Time work = 0;
  for (const auto& j : jobs_) work += j.finish - j.start;
  return static_cast<double>(work) /
         (static_cast<double>(num_processors_) *
          static_cast<double>(makespan_));
}

bool TemplateSchedule::validate_against(const Dag& dag) const {
  if (jobs_.size() != dag.num_vertices()) return false;
  for (const auto& j : jobs_) {
    if (j.vertex >= dag.num_vertices()) return false;
    if (j.finish - j.start != dag.wcet(j.vertex)) return false;
  }
  // No overlap per processor: sort slots per processor by start.
  std::vector<std::vector<const ScheduledJob*>> per_proc(
      static_cast<std::size_t>(num_processors_));
  for (const auto& j : jobs_)
    per_proc[static_cast<std::size_t>(j.processor)].push_back(&j);
  for (auto& slots : per_proc) {
    std::sort(slots.begin(), slots.end(),
              [](const ScheduledJob* a, const ScheduledJob* b) {
                return a->start < b->start;
              });
    for (std::size_t i = 1; i < slots.size(); ++i) {
      if (slots[i - 1]->finish > slots[i]->start) return false;
    }
  }
  // Precedence: finish(u) <= start(v) for every edge (u, v).
  for (VertexId u = 0; u < dag.num_vertices(); ++u) {
    for (VertexId v : dag.successors(u)) {
      if (job_for(u).finish > job_for(v).start) return false;
    }
  }
  return true;
}

}  // namespace fedcons
