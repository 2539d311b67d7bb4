#include "fedcons/listsched/optimal_makespan.h"

#include <algorithm>
#include <vector>

#include "fedcons/listsched/list_scheduler.h"
#include "fedcons/util/check.h"

namespace fedcons {

namespace {

/// Depth-first branch and bound over non-delay schedules.
///
/// Completeness: for P|prec|Cmax on identical machines the class of list
/// (non-delay) schedules is dominant — given any feasible schedule S, list
/// scheduling with jobs prioritized by S's start times starts every job no
/// later than S does (induction over S-start order: predecessors and
/// machines free up no later than in S). Hence enumerating non-delay
/// schedules suffices for optimality.
class BranchAndBound {
 public:
  BranchAndBound(const Dag& dag, int m, std::uint64_t budget)
      : dag_(dag), m_(m), budget_(budget) {
    const std::size_t n = dag_.num_vertices();
    bottom_.resize(n);
    for (VertexId v = 0; v < n; ++v) bottom_[v] = dag_.bottom_level(v);
  }

  OptimalMakespanResult run() {
    // Warm start: best list schedule over the stock policies.
    best_ = kTimeInfinity;
    for (ListPolicy policy :
         {ListPolicy::kCriticalPath, ListPolicy::kLongestWcet,
          ListPolicy::kVertexOrder}) {
      best_ = std::min(best_, list_schedule(dag_, m_, policy).makespan());
    }
    std::vector<Time> machine_free(static_cast<std::size_t>(m_), 0);
    std::vector<Time> finish(dag_.num_vertices(), -1);
    Time total = dag_.vol();
    dfs(machine_free, finish, 0u, total, 0);
    OptimalMakespanResult result;
    result.makespan = best_;
    result.nodes = nodes_;
    result.exact = exact_;
    return result;
  }

 private:
  void dfs(std::vector<Time>& machine_free, std::vector<Time>& finish,
           std::uint32_t scheduled, Time remaining_work, Time max_finish) {
    if (!exact_) return;
    if (++nodes_ > budget_) {
      exact_ = false;
      return;
    }
    const std::size_t n = dag_.num_vertices();
    if (scheduled == (std::uint32_t{1} << n) - 1) {
      best_ = std::min(best_, max_finish);
      return;
    }

    // Eligible jobs: unscheduled with every predecessor scheduled. Their
    // earliest start is max(latest pred finish, earliest machine).
    struct Candidate {
      VertexId v;
      Time est;
    };
    std::vector<Candidate> eligible;
    const Time machine0 = machine_free.front();
    Time t_star = kTimeInfinity;
    for (VertexId v = 0; v < n; ++v) {
      if (scheduled & (std::uint32_t{1} << v)) continue;
      Time ready = 0;
      bool ok = true;
      for (VertexId p : dag_.predecessors(v)) {
        if (!(scheduled & (std::uint32_t{1} << p))) {
          ok = false;
          break;
        }
        ready = std::max(ready, finish[p]);
      }
      if (!ok) continue;
      Time est = std::max(ready, machine0);
      eligible.push_back({v, est});
      t_star = std::min(t_star, est);
    }
    FEDCONS_ASSERT(!eligible.empty());  // acyclic ⇒ progress possible

    // Lower bounds at this node.
    {
      // Area: machines busy up to their free times beyond t*, plus all
      // unscheduled work, spread over m machines starting at t*.
      Time committed = 0;
      for (Time f : machine_free) {
        if (f > t_star) committed += f - t_star;
      }
      Time area_lb =
          t_star + ceil_div(remaining_work + committed, m_);
      Time path_lb = 0;
      for (const auto& c : eligible) {
        path_lb = std::max(path_lb, c.est + bottom_[c.v]);
      }
      Time lb = std::max({max_finish, area_lb, path_lb});
      if (lb >= best_) return;  // incumbent is at least as good
    }

    // Non-delay branching: some job with est == t* starts at t*.
    std::vector<Candidate> branches;
    for (const auto& c : eligible) {
      if (c.est == t_star) branches.push_back(c);
    }
    // Explore promising branches first: deepest remaining path first.
    std::sort(branches.begin(), branches.end(),
              [&](const Candidate& a, const Candidate& b) {
                if (bottom_[a.v] != bottom_[b.v])
                  return bottom_[a.v] > bottom_[b.v];
                return a.v < b.v;
              });
    for (const auto& c : branches) {
      const Time job_finish = t_star + dag_.wcet(c.v);
      // Place on the earliest machine (index 0 of the sorted vector).
      const Time saved_machine = machine_free.front();
      machine_free.front() = job_finish;
      std::sort(machine_free.begin(), machine_free.end());
      finish[c.v] = job_finish;

      dfs(machine_free, finish, scheduled | (std::uint32_t{1} << c.v),
          remaining_work - dag_.wcet(c.v),
          std::max(max_finish, job_finish));

      finish[c.v] = -1;
      // Restore machine multiset.
      auto it = std::find(machine_free.begin(), machine_free.end(),
                          job_finish);
      FEDCONS_ASSERT(it != machine_free.end());
      *it = saved_machine;
      std::sort(machine_free.begin(), machine_free.end());
      if (!exact_) return;
    }
  }

  const Dag& dag_;
  int m_;
  std::uint64_t budget_;
  std::uint64_t nodes_ = 0;
  bool exact_ = true;
  Time best_ = kTimeInfinity;
  std::vector<Time> bottom_;
};

}  // namespace

OptimalMakespanResult optimal_makespan(const Dag& dag, int num_processors,
                                       std::uint64_t node_budget) {
  FEDCONS_EXPECTS(!dag.empty());
  FEDCONS_EXPECTS(num_processors >= 1);
  FEDCONS_EXPECTS_MSG(dag.num_vertices() <= 20,
                      "optimal_makespan is sized for |V| <= 20");
  BranchAndBound search(dag, num_processors, node_budget);
  return search.run();
}

}  // namespace fedcons
