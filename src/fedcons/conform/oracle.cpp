#include "fedcons/conform/oracle.h"

#include <utility>

#include "fedcons/baselines/global_edf.h"
#include "fedcons/baselines/partitioned_dm.h"
#include "fedcons/baselines/partitioned_seq.h"
#include "fedcons/federated/federated_implicit.h"
#include "fedcons/listsched/list_scheduler.h"
#include "fedcons/sim/edf_sim.h"
#include "fedcons/sim/global_edf_sim.h"
#include "fedcons/sim/release_generator.h"
#include "fedcons/sim/system_sim.h"
#include "fedcons/util/check.h"
#include "fedcons/util/rng.h"

namespace fedcons {

namespace {

/// Replay a set of per-processor EDF bins (TaskIds per bin, each task
/// sequentialized). Streams draw from `rng` via split() in bin-then-member
/// order, mirroring simulate_system's shared-pool convention.
SimStats replay_edf_bins(const TaskSystem& system,
                         const std::vector<std::vector<TaskId>>& bins,
                         const SimConfig& config, Rng& rng) {
  SimStats total;
  for (const auto& bin : bins) {
    std::vector<EdfTaskStream> streams;
    streams.reserve(bin.size());
    for (TaskId t : bin) {
      const SporadicTask seq = system[t].to_sequential();
      Rng stream_rng = rng.split();
      streams.push_back(EdfTaskStream{generate_sequential_releases(
          seq.wcet, seq.deadline, seq.period, config, stream_rng)});
    }
    total.merge(simulate_edf_uniproc(streams, config));
  }
  return total;
}

ConformanceOutcome run_fedcons(const TaskSystem& system, int m,
                               const SimConfig& config,
                               const FedconsOptions& options,
                               ClusterDispatch dispatch) {
  ConformanceOutcome out;
  if (system.deadline_class() == DeadlineClass::kArbitrary) return out;
  out.supported = true;
  const FedconsResult result = fedcons_schedule(system, m, options);
  out.admitted = result.success;
  if (!result.success) return out;
  out.sim = simulate_system(system, result, config, dispatch).total;
  return out;
}

ConformanceOutcome run_arbitrary(const TaskSystem& system, int m,
                                 const SimConfig& config,
                                 ArbitraryStrategy strategy) {
  ConformanceOutcome out;
  out.supported = true;
  const ArbitraryFederatedResult result =
      arbitrary_federated_schedule(system, m, strategy);
  out.admitted = result.success;
  if (!result.success) return out;
  out.sim = simulate_arbitrary_system(system, result, config).total;
  return out;
}

ConformanceOutcome run_pseq(const TaskSystem& system, int m,
                            const SimConfig& config) {
  ConformanceOutcome out;
  out.supported = true;
  const PartitionResult result = partitioned_sequential(system, m);
  out.admitted = result.success;
  if (!result.success) return out;
  // assignment[k] holds TaskIds (tasks were sequentialized in system order).
  std::vector<std::vector<TaskId>> bins(result.assignment.begin(),
                                        result.assignment.end());
  Rng rng(config.seed);
  out.sim = replay_edf_bins(system, bins, config, rng);
  return out;
}

ConformanceOutcome run_pdm(const TaskSystem& system, int m,
                           const SimConfig& config) {
  ConformanceOutcome out;
  if (system.deadline_class() == DeadlineClass::kArbitrary) return out;
  out.supported = true;
  const PartitionedDmResult result = partitioned_dm(system, m);
  out.admitted = result.success;
  if (!result.success) return out;
  // Each bin runs preemptive fixed-priority with the bin's DM order as the
  // priority order (stream index == priority) — exactly what RTA certified.
  Rng rng(config.seed);
  for (const auto& bin : result.assignment) {
    std::vector<EdfTaskStream> streams;
    streams.reserve(bin.size());
    for (TaskId t : bin) {
      const SporadicTask seq = system[t].to_sequential();
      Rng stream_rng = rng.split();
      streams.push_back(EdfTaskStream{generate_sequential_releases(
          seq.wcet, seq.deadline, seq.period, config, stream_rng)});
    }
    out.sim.merge(simulate_fp_uniproc(streams, config));
  }
  return out;
}

ConformanceOutcome run_gedf_density(const TaskSystem& system, int m,
                                    const SimConfig& config) {
  ConformanceOutcome out;
  if (system.deadline_class() == DeadlineClass::kArbitrary) return out;
  out.supported = true;
  out.admitted = gedf_dag_density_test(system, m);
  if (!out.admitted) return out;
  // The density bound certifies the SEQUENTIALIZED system; replay that
  // composition (one vertex of WCET vol per task) under global EDF.
  TaskSystem seq;
  for (const auto& t : system) {
    seq.add(DagTask(DagBuilder{}.vertex(t.vol()).build(), t.deadline(),
                    t.period(), t.name()));
  }
  Rng rng(config.seed);
  std::vector<std::vector<DagJobRelease>> releases;
  releases.reserve(seq.size());
  for (TaskId i = 0; i < seq.size(); ++i) {
    Rng stream_rng = rng.split();
    releases.push_back(generate_releases(seq[i], config, stream_rng));
  }
  out.sim = simulate_global_edf(seq, releases, m, config);
  return out;
}

ConformanceOutcome run_fed_li(const TaskSystem& system, int m,
                              const SimConfig& config, bool implicit_variant) {
  ConformanceOutcome out;
  if (implicit_variant) {
    if (system.deadline_class() != DeadlineClass::kImplicit) return out;
  } else {
    if (system.deadline_class() == DeadlineClass::kArbitrary) return out;
  }
  out.supported = true;
  const FederatedBaselineResult result =
      implicit_variant ? li_federated_implicit(system, m)
                       : li_federated_constrained_adaptation(system, m);
  out.admitted = result.success;
  if (!result.success) return out;
  // Li's run-time rule is "any work-conserving scheduler" on the n_i
  // dedicated processors; an LS template replay is a valid instance of it
  // (Graham: makespan ≤ len + (vol − len)/n_i ≤ analysis window).
  Rng rng(config.seed);
  for (const auto& [task_id, n] : result.dedicated) {
    const DagTask& task = system[task_id];
    const TemplateSchedule sigma = list_schedule(task.graph(), n);
    Rng stream_rng = rng.split();
    auto releases = generate_releases(task, config, stream_rng);
    out.sim.merge(simulate_cluster(task, sigma, releases, config,
                                   ClusterDispatch::kTemplateReplay));
  }
  out.sim.merge(
      replay_edf_bins(system, result.shared_assignment, config, rng));
  return out;
}

}  // namespace

ConformanceEntry make_fedcons_conformance_entry(std::string name,
                                                const FedconsOptions& options,
                                                ClusterDispatch dispatch) {
  return ConformanceEntry{
      std::move(name),
      [options, dispatch](const TaskSystem& s, int m, const SimConfig& c) {
        return run_fedcons(s, m, c, options, dispatch);
      }};
}

ConformanceEntry make_arbitrary_conformance_entry(std::string name,
                                                  ArbitraryStrategy strategy) {
  return ConformanceEntry{
      std::move(name),
      [strategy](const TaskSystem& s, int m, const SimConfig& c) {
        return run_arbitrary(s, m, c, strategy);
      }};
}

std::vector<ConformanceEntry> builtin_conformance_entries() {
  std::vector<ConformanceEntry> entries;
  entries.push_back(make_fedcons_conformance_entry("FEDCONS"));

  FedconsOptions literal;
  literal.partition.variant = PartitionVariant::kPaperLiteral;
  entries.push_back(make_fedcons_conformance_entry("FEDCONS-lit", literal));

  entries.push_back(ConformanceEntry{
      "FED-LI-implicit",
      [](const TaskSystem& s, int m, const SimConfig& c) {
        return run_fed_li(s, m, c, /*implicit_variant=*/true);
      }});
  entries.push_back(ConformanceEntry{
      "FED-LI-adapt",
      [](const TaskSystem& s, int m, const SimConfig& c) {
        return run_fed_li(s, m, c, /*implicit_variant=*/false);
      }});
  entries.push_back(ConformanceEntry{"P-SEQ", run_pseq});
  entries.push_back(ConformanceEntry{"P-DM", run_pdm});
  entries.push_back(ConformanceEntry{"GEDF-density", run_gedf_density});
  entries.push_back(
      make_arbitrary_conformance_entry("ARBFED", ArbitraryStrategy::kPipelined));
  entries.push_back(make_arbitrary_conformance_entry(
      "ARBFED-clamp", ArbitraryStrategy::kClampToPeriod));
  return entries;
}

std::vector<ConformanceEntry> demonstration_conformance_entries() {
  std::vector<ConformanceEntry> entries;
  entries.push_back(make_fedcons_conformance_entry(
      "FEDCONS@online-rerun", {}, ClusterDispatch::kOnlineRerun));

  FedconsOptions unsound;
  unsound.partition.variant = PartitionVariant::kPaperLiteral;
  unsound.partition.order = PartitionOrder::kUtilizationDescending;
  entries.push_back(make_fedcons_conformance_entry("FEDCONS-lit-udo", unsound));
  return entries;
}

ConformanceEntry find_conformance_entry(const std::string& name) {
  for (auto battery :
       {builtin_conformance_entries(), demonstration_conformance_entries()}) {
    for (auto& entry : battery) {
      if (entry.name == name) return std::move(entry);
    }
  }
  FEDCONS_EXPECTS_MSG(false, "unknown conformance entry: " + name);
  return {};  // unreachable
}

}  // namespace fedcons
