#include "fedcons/obs/provenance.h"

#include <sstream>

#include "fedcons/util/mini_json.h"
#include "fedcons/util/table.h"

namespace fedcons {

const char* to_string(BinRejectReason r) noexcept {
  switch (r) {
    case BinRejectReason::kUtilization: return "utilization";
    case BinRejectReason::kDemand: return "demand";
    case BinRejectReason::kExactEdf: return "exact-edf";
  }
  return "?";
}

namespace {

std::string task_label(const TaskSystem& system, TaskId i) {
  std::string s = "τ" + std::to_string(i + 1);
  if (!system[i].name().empty()) s += " '" + system[i].name() + "'";
  return s;
}

void render_scan_text(std::ostringstream& os, const TaskSystem& system,
                      const ClusterProvenance& c) {
  const DagTask& task = system[c.task];
  os << "  " << task_label(system, c.task) << " (δ≈"
     << fmt_double(task.density_approx(), 2) << ", vol=" << task.vol()
     << ", len=" << task.len() << ", D=" << task.deadline() << "): ";
  const MinprocsProvenance& s = c.scan;
  if (s.len_exceeds_deadline) {
    os << "len > D — no processor count can meet the deadline "
          "(critical path alone overruns)\n";
    return;
  }
  os << "scan μ ∈ [⌈δ⌉=" << s.scan_lb << ", min(m_r=" << s.max_processors
     << ", cap=" << s.scan_cap << ")]";
  if (s.satisfied) {
    os << " → μ=" << s.chosen_mu;
  } else if (s.probes.empty()) {
    os << " → EXHAUSTED: scan start ⌈δ⌉=" << s.scan_lb << " already exceeds m_r="
       << s.max_processors << " (no probe run)";
  } else {
    os << " → EXHAUSTED m_r=" << s.max_processors << ": best makespan "
       << s.best_makespan << " at μ=" << s.best_mu << " > D="
       << task.deadline();
  }
  os << "; probes:";
  if (s.probes.empty()) os << " (none)";
  for (const auto& p : s.probes) {
    os << " μ=" << p.mu << ":" << p.makespan;
  }
  os << "\n";
}

void render_placement_text(std::ostringstream& os, const TaskSystem& system,
                           const FedconsProvenance& prov,
                           const PlacementRecord& pl) {
  const TaskId id = pl.task_index < prov.low_tasks.size()
                        ? prov.low_tasks[pl.task_index]
                        : pl.task_index;
  os << "  " << task_label(system, id) << " (D=" << pl.deadline
     << ", C=" << pl.wcet << ")";
  if (pl.chosen_bin >= 0) {
    os << " → bin " << pl.chosen_bin;
    // Bins skipped on the way (first-fit): name each failing breakpoint.
    for (const auto& a : pl.attempts) {
      if (a.fits) continue;
      os << "; bin " << a.bin << " refused (" << a.detail << ")";
    }
    os << "\n";
    return;
  }
  os << ": NO BIN FIT\n";
  for (const auto& a : pl.attempts) {
    os << "      bin " << a.bin << ": " << a.detail << "\n";
  }
}

}  // namespace

std::string explain_text(const TaskSystem& system,
                         const FedconsProvenance& prov) {
  std::ostringstream os;
  os << "FEDCONS on m=" << prov.m << ": ";
  if (prov.success) {
    os << "ACCEPTED\n";
  } else {
    os << "REJECTED in " << prov.failure;
    if (prov.failed_task.has_value()) {
      os << " (" << task_label(system, *prov.failed_task) << ")";
    }
    os << "\n";
  }
  os << "phase 1 — MINPROCS template clusters (" << prov.clusters.size()
     << " high-density task(s)):\n";
  if (prov.clusters.empty()) os << "  (no high-density tasks)\n";
  for (const auto& c : prov.clusters) render_scan_text(os, system, c);
  os << "phase 2 — PARTITION deadline-monotonic first-fit";
  if (!prov.partition_reached) {
    os << ": not reached (phase 1 failed)\n";
    return os.str();
  }
  os << " on m_r=" << prov.shared_processors << " shared processor(s), "
     << prov.low_tasks.size() << " low-density task(s):\n";
  if (prov.partition.placements.empty()) os << "  (nothing to place)\n";
  for (const auto& pl : prov.partition.placements) {
    render_placement_text(os, system, prov, pl);
  }
  if (!prov.success && prov.failure == "partition-phase") {
    os << "  (placement aborts at the first task that fits nowhere; "
          "later tasks were not attempted)\n";
  }
  return os.str();
}

std::string explain_json(const TaskSystem& system,
                         const FedconsProvenance& prov) {
  std::ostringstream os;
  os << "{\n  \"schema_version\": 1,\n";
  os << "  \"m\": " << prov.m << ",\n";
  os << "  \"schedulable\": " << (prov.success ? "true" : "false") << ",\n";
  os << "  \"failure\": \"" << json_escape(prov.failure) << "\",\n";
  os << "  \"failed_task\": ";
  if (prov.failed_task.has_value()) {
    os << *prov.failed_task;
  } else {
    os << "null";
  }
  os << ",\n  \"clusters\": [\n";
  for (std::size_t i = 0; i < prov.clusters.size(); ++i) {
    const ClusterProvenance& c = prov.clusters[i];
    const MinprocsProvenance& s = c.scan;
    os << "    {\"task\": " << c.task << ", \"name\": \""
       << json_escape(system[c.task].name()) << "\", \"deadline\": "
       << system[c.task].deadline() << ", \"m_r_at_entry\": "
       << c.m_r_at_entry << ", \"scan_lb\": " << s.scan_lb
       << ", \"scan_cap\": " << s.scan_cap << ", \"len_exceeds_deadline\": "
       << (s.len_exceeds_deadline ? "true" : "false")
       << ", \"satisfied\": " << (s.satisfied ? "true" : "false")
       << ", \"chosen_mu\": " << s.chosen_mu << ", \"best_mu\": " << s.best_mu
       << ", \"best_makespan\": ";
    if (s.best_makespan == kTimeInfinity) {
      os << "null";
    } else {
      os << s.best_makespan;
    }
    os << ", \"probes\": [";
    for (std::size_t p = 0; p < s.probes.size(); ++p) {
      if (p) os << ", ";
      os << "{\"mu\": " << s.probes[p].mu << ", \"makespan\": "
         << s.probes[p].makespan << "}";
    }
    os << "]}" << (i + 1 < prov.clusters.size() ? "," : "") << "\n";
  }
  os << "  ],\n";
  os << "  \"partition_reached\": "
     << (prov.partition_reached ? "true" : "false") << ",\n";
  os << "  \"shared_processors\": " << prov.shared_processors << ",\n";
  os << "  \"placements\": [\n";
  const auto& pls = prov.partition.placements;
  for (std::size_t i = 0; i < pls.size(); ++i) {
    const PlacementRecord& pl = pls[i];
    const TaskId id = pl.task_index < prov.low_tasks.size()
                          ? prov.low_tasks[pl.task_index]
                          : pl.task_index;
    os << "    {\"task\": " << id << ", \"deadline\": " << pl.deadline
       << ", \"wcet\": " << pl.wcet << ", \"chosen_bin\": " << pl.chosen_bin
       << ", \"attempts\": [";
    for (std::size_t a = 0; a < pl.attempts.size(); ++a) {
      const BinAttemptRecord& at = pl.attempts[a];
      if (a) os << ", ";
      os << "{\"bin\": " << at.bin << ", \"fits\": "
         << (at.fits ? "true" : "false");
      if (!at.fits) {
        os << ", \"reason\": \"" << to_string(at.reason) << "\", "
           << "\"breakpoint\": " << at.breakpoint << ", \"detail\": \""
           << json_escape(at.detail) << "\"";
      }
      os << "}";
    }
    os << "]}" << (i + 1 < pls.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
  return os.str();
}

}  // namespace fedcons
