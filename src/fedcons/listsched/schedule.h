// Template schedules σ_i for dedicated clusters.
//
// Paper, Section IV-A: for each high-density task the offline List-Scheduling
// run produces a schedule σ_i of one dag-job on m_i processors assuming every
// job runs for its full WCET. At run time σ_i is used as a *lookup table*:
// the job of vertex v starts exactly at (release + start(v)) on processor
// proc(v) and its slot is simply left idle if the job finishes early. This
// sidesteps Graham's timing anomaly (footnote 2: re-running LS online with
// shorter actual execution times can *increase* the schedule length).
#pragma once

#include <vector>

#include "fedcons/core/dag.h"
#include "fedcons/util/time_types.h"

namespace fedcons {

/// Placement of one vertex's job within a template schedule.
struct ScheduledJob {
  VertexId vertex = 0;
  int processor = 0;  ///< 0-based processor index within the cluster
  Time start = 0;     ///< offset from the dag-job release
  Time finish = 0;    ///< start + WCET (non-preemptive slot)
};

/// A complete non-preemptive schedule of one dag-job on a fixed number of
/// processors. Immutable value type produced by the list scheduler.
class TemplateSchedule {
 public:
  /// Empty schedule on one processor (makespan 0) — the value-type default.
  TemplateSchedule() : num_processors_(1) {}

  /// Preconditions: num_processors >= 1; one entry per vertex of the intended
  /// DAG with finish == start + wcet. Validation against a DAG is separate
  /// (validate_against) so schedules can be transported independently.
  TemplateSchedule(int num_processors, std::vector<ScheduledJob> jobs);

  [[nodiscard]] int num_processors() const noexcept {
    return num_processors_;
  }
  [[nodiscard]] const std::vector<ScheduledJob>& jobs() const noexcept {
    return jobs_;
  }
  [[nodiscard]] std::size_t num_jobs() const noexcept { return jobs_.size(); }

  /// Completion time of the last job (0 for an empty schedule).
  [[nodiscard]] Time makespan() const noexcept { return makespan_; }

  /// Lookup by vertex id (binary search of the vertex-sorted jobs).
  /// Precondition: the schedule contains that vertex.
  [[nodiscard]] const ScheduledJob& job_for(VertexId v) const;

  /// Fraction of processor·time occupied within [0, makespan): Σ wcet /
  /// (m · makespan) — reported by the MINPROCS efficiency experiment.
  [[nodiscard]] double occupancy() const noexcept;

  /// Full structural validation against the DAG this schedule claims to
  /// serve. Checks: exactly the DAG's vertex set; slot lengths equal WCETs;
  /// processor indices within range; no two jobs overlap on a processor; and
  /// every precedence edge (u, v) satisfies finish(u) <= start(v).
  /// Returns true iff all hold.
  [[nodiscard]] bool validate_against(const Dag& dag) const;

 private:
  int num_processors_;
  std::vector<ScheduledJob> jobs_;  // sorted by vertex id
  Time makespan_ = 0;
};

}  // namespace fedcons
