// fedcons_cli — analyze, schedule, and simulate task systems from files.
//
// Usage:
//   fedcons_cli --file=workload.tasks --m=8 [--simulate] [--horizon=100000]
//               [--strategy=fedcons|arbfed|arbfed-clamp] [--algo=NAME]
//               [--variant=full|literal] [--seed=1] [--dot] [--gantt]
//               [--margins] [--json] [--explain[=json]] [--trace-out=FILE]
//               [--inject=SPEC] [--enforce=on|off]
//   fedcons_cli --online=TRACE [--m=N] [--json | --explain]
//   fedcons_cli --list-algos         # engine registry names + descriptions
//   fedcons_cli --example            # print a sample workload file and exit
//
// --online=TRACE replays an admission-event trace (the online/trace.h JSONL
// format: admit / release / swap lines) through a live AdmissionSession and
// reports per-event latency next to the incremental-analysis counters (memo
// hits/misses, partition probes replayed). --m overrides the trace header's
// processor count. --json emits the machine-readable replay document
// (latency fields are wall-clock measurements, not byte-stable); --explain
// appends each resident high-density task's μ-scan trajectory, marking μ
// values served from the memo cache. Exit 0 iff the final verdict is
// schedulable.
//
// --inject=SPEC runs the fault-injection flow (fault/fault_plan.h grammar,
// e.g. "task:a,overrun:2500,early:10;seed:7" or "proc:2@1000"):
//  * a `proc:P@T` clause computes the degraded-mode plan — FEDCONS re-run on
//    m−1 processors, shedding tasks only if re-admission fails. Exit 0 when
//    every task survives, 1 when tasks were shed. --json emits the
//    structured degraded-mode document.
//  * `task:` clauses replay the admitted allocation with the faults
//    injected. --enforce=on (default) turns runtime supervision on; the run
//    reports per-task misses and enforcement events, and exits 0 iff no
//    NON-targeted task missed a deadline (the isolation property), 1
//    otherwise.
//
// All three tools reject unknown or malformed flags with usage + exit 2.
//
// --algo=NAME runs any test from the engine registry (verdict only; the
// FEDCONS-specific cluster report, --gantt, --margins, and --simulate need
// the structured result and stay on the --strategy path).
//
// --json (fedcons strategy only) replaces the human-readable report with one
// machine-readable document: the verdict, the allocation, per-task MINPROCS
// scan bounds ([minprocs_scan_lb, minprocs_scan_cap] — how far the
// bound-guided scan can possibly run), and the analysis-cost counters
// measured across this run (perf counter deltas plus the thread's
// workspace-reuse count). Exit status is unchanged.
//
// --explain (fedcons strategy only) records verdict provenance and appends
// the full decision log to the report: each high-density task's μ-scan
// trajectory with every LS probe's makespan against D_i, and each
// low-density task's bin-attempt list with the failing DBF* breakpoint.
// --explain=json emits the machine-readable provenance document instead of
// the human report (mutually exclusive with --json: one document per run).
//
// --trace-out=FILE enables span tracing for the run and writes a Chrome
// trace-event JSON (open in Perfetto / chrome://tracing) on exit.
//
// Exit status: 0 = schedulable (and, with --simulate, zero misses),
//              1 = rejected / misses, 2 = usage or parse error.
#include <fstream>
#include <iostream>
#include <iterator>

#include "fedcons/analysis/feasibility.h"
#include "fedcons/core/io.h"
#include "fedcons/engine/registry.h"
#include "fedcons/fault/degraded.h"
#include "fedcons/fault/fault_plan.h"
#include "fedcons/federated/arbitrary.h"
#include "fedcons/federated/fedcons_algorithm.h"
#include "fedcons/federated/sensitivity.h"
#include "fedcons/listsched/ls_workspace.h"
#include "fedcons/obs/provenance.h"
#include "fedcons/obs/span_tracer.h"
#include "fedcons/online/admission_session.h"
#include "fedcons/online/trace.h"
#include "fedcons/sim/gantt.h"
#include "fedcons/sim/system_sim.h"
#include "fedcons/simd/dispatch.h"
#include "fedcons/util/check.h"
#include "fedcons/util/flags.h"
#include "fedcons/util/mini_json.h"
#include "fedcons/util/perf_counters.h"
#include "fedcons/util/table.h"

using namespace fedcons;

namespace {

constexpr const char* kExample = R"(# Example fedcons workload (ticks are abstract time units).
task sensor-fusion
  deadline 2
  period 10
  vertex 1
  vertex 1
  vertex 1
  vertex 1
end
task control-law
  deadline 16
  period 20
  vertex 1
  vertex 2
  vertex 3
  vertex 2
  vertex 1
  edge 0 1
  edge 0 2
  edge 1 3
  edge 2 3
  edge 2 4
end
task logger
  deadline 12
  period 40
  vertex 2
  vertex 1
  edge 0 1
end
)";

int usage() {
  std::cerr
      << "usage: fedcons_cli --file=<workload> --m=<processors>\n"
         "                   [--simulate] [--horizon=N] [--seed=N] [--dot]\n"
         "                   [--strategy=fedcons|arbfed|arbfed-clamp]\n"
         "                   [--algo=NAME] [--variant=full|literal] [--json]\n"
         "                   [--explain[=json]] [--trace-out=FILE]\n"
         "                   [--inject=SPEC] [--enforce=on|off]\n"
         "       fedcons_cli --online=TRACE [--m=N] [--json | --explain]\n"
         "       fedcons_cli --list-algos\n"
         "       fedcons_cli --example\n";
  return 2;
}

// Machine-readable run report. Key order and formatting are fixed so the
// document is byte-stable for a given workload and build.
void print_json_report(std::ostream& os, const std::string& file, int m,
                       const TaskSystem& system, const FedconsResult& result,
                       const PerfCounters& counters,
                       std::uint64_t workspace_reuses) {
  os << "{\n";
  os << "  \"schema_version\": 1,\n";
  os << "  \"file\": \"" << json_escape(file) << "\",\n";
  os << "  \"m\": " << m << ",\n";
  os << "  \"strategy\": \"fedcons\",\n";
  // Provenance only: verdicts and counters are backend-invariant (the
  // simd-smoke battery pins it), so this records what ran, not what decided.
  os << "  \"simd_backend\": \"" << simd::to_string(simd::active_backend())
     << "\",\n";
  os << "  \"schedulable\": " << (result.success ? "true" : "false") << ",\n";
  os << "  \"failure\": \"" << to_string(result.failure) << "\",\n";
  os << "  \"tasks\": [\n";
  for (std::size_t i = 0; i < system.size(); ++i) {
    const DagTask& task = system[i];
    const std::string name =
        task.name().empty() ? "task" + std::to_string(i + 1) : task.name();
    os << "    {\"index\": " << i << ", \"name\": \"" << json_escape(name)
       << "\", \"density\": \""
       << (task.is_high_density() ? "high" : "low") << "\", \"vol\": "
       << task.vol() << ", \"len\": " << task.len() << ", \"deadline\": "
       << task.deadline() << ", \"period\": " << task.period()
       << ", \"minprocs_scan_lb\": " << minprocs_lower_bound(task)
       << ", \"minprocs_scan_cap\": " << minprocs_scan_cap(task) << "}"
       << (i + 1 < system.size() ? "," : "") << "\n";
  }
  os << "  ],\n";
  os << "  \"clusters\": [\n";
  for (std::size_t c = 0; c < result.clusters.size(); ++c) {
    const ClusterAssignment& cl = result.clusters[c];
    os << "    {\"task\": " << cl.task << ", \"first_processor\": "
       << cl.first_processor << ", \"num_processors\": " << cl.num_processors
       << ", \"makespan\": " << cl.sigma.makespan() << "}"
       << (c + 1 < result.clusters.size() ? "," : "") << "\n";
  }
  os << "  ],\n";
  os << "  \"shared_processors\": " << result.shared_processors << ",\n";
  os << "  \"counters\": {\"ls_invocations\": " << counters.ls_invocations
     << ", \"minprocs_scan_iterations\": "
     << counters.minprocs_scan_iterations
     << ", \"dbf_star_evaluations\": " << counters.dbf_star_evaluations
     << ", \"ls_probes_pruned\": " << counters.ls_probes_pruned
     << ", \"ls_probes_blocked\": " << counters.ls_probes_blocked
     << ", \"simd_breakpoints_vectorized\": "
     << counters.simd_breakpoints_vectorized
     << ", \"minprocs_memo_hits\": " << counters.minprocs_memo_hits
     << ", \"minprocs_memo_misses\": " << counters.minprocs_memo_misses
     << ", \"partition_bins_revalidated\": "
     << counters.partition_bins_revalidated
     << ", \"workspace_reuses\": " << workspace_reuses << "}\n";
  os << "}\n";
}

// Writes the Chrome trace on every exit path once --trace-out is set.
struct TraceDump {
  std::string path;
  ~TraceDump() {
    if (path.empty()) return;
    std::ofstream out(path);
    if (!out) {
      std::cerr << "error: cannot write trace to '" << path << "'\n";
      return;
    }
    obs::write_chrome_trace(out);
  }
};

int list_algos() {
  const TestRegistry& reg = TestRegistry::global();
  Table t({"name", "deadlines", "description"});
  for (const std::string& name : reg.names()) {
    TestPtr test = reg.make(name);
    t.add_row({test->name(), to_string(test->max_deadline_class()),
               test->description()});
  }
  t.print(std::cout);
  return 0;
}

/// Per-task fault-injection replay: admit, inject, simulate, attribute.
/// Exit 0 iff no task the plan does not target missed a deadline.
int run_injection(const TaskSystem& system, int m, const FaultPlan& plan,
                  const Flags& flags, const FedconsOptions& options) {
  const std::string enforce_str = flags.get_string("enforce", "on");
  if (enforce_str != "on" && enforce_str != "off") {
    std::cerr << "error: --enforce takes 'on' or 'off'\n";
    return 2;
  }
  const SupervisionMode supervision = enforce_str == "on"
                                          ? SupervisionMode::kEnforce
                                          : SupervisionMode::kNone;
  const FedconsResult fed = fedcons_schedule(system, m, options);
  if (!fed.success) {
    std::cout << "FEDCONS rejected the system on m=" << m
              << " — nothing to inject into\n";
    return 1;
  }
  SimConfig cfg;
  cfg.horizon = flags.get_int("horizon", 100000);
  cfg.release = ReleaseModel::kSporadic;
  cfg.exec = ExecModel::kUniform;
  cfg.exec_lo = 0.5;
  cfg.seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  cfg.faults = plan;
  cfg.supervision = supervision;
  const SystemSimReport rep = simulate_system(system, fed, cfg);

  std::cout << "Fault injection (" << format_fault_plan(plan)
            << "), supervision " << to_string(supervision) << ", horizon "
            << cfg.horizon << ":\n";
  Table table({"task", "faulted", "released", "misses", "throttles",
               "deferrals", "slot-overruns"});
  std::uint64_t cross_misses = 0;
  for (std::size_t t = 0; t < system.size(); ++t) {
    const std::string name = task_display_name(system, t);
    const bool targeted = plan.find(name) != nullptr;
    const SimStats& s = rep.per_task[t];
    if (!targeted) cross_misses += s.deadline_misses;
    table.add_row({name, targeted ? "yes" : "no",
                   std::to_string(s.jobs_released),
                   std::to_string(s.deadline_misses),
                   std::to_string(s.budget_throttles),
                   std::to_string(s.arrival_deferrals),
                   std::to_string(s.slot_overruns)});
  }
  table.print(std::cout);
  std::cout << (cross_misses == 0
                    ? "isolation held: no non-targeted task missed\n"
                    : "ISOLATION VIOLATED: " + std::to_string(cross_misses) +
                          " miss(es) on non-targeted tasks\n");
  return cross_misses == 0 ? 0 : 1;
}

/// --online=TRACE: replay an admission-event trace through a live
/// AdmissionSession, timing every event. The per-event latency table is the
/// observable the O(changed-task) claim is judged on; the memo / bin-probe
/// counters say where the saved work went. Exit 0 iff the final verdict is
/// schedulable (matching the batch CLI's convention), 2 on bad input.
int run_online(const Flags& flags, PartitionVariant variant) {
  const std::string path = flags.get_string("online", "");
  if (path.empty() || path == "true") {
    std::cerr << "error: --online needs a trace file (--online=FILE)\n";
    return 2;
  }
  std::ifstream in(path);
  if (!in) {
    std::cerr << "error: cannot open '" << path << "'\n";
    return 2;
  }
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  OnlineTrace trace;
  try {
    trace = parse_online_trace(text);
  } catch (const ParseError& e) {
    std::cerr << "parse error in '" << path << "': " << e.what() << "\n";
    return 2;
  }

  const bool json = flags.has("json");
  const bool explain = flags.has("explain");
  if (json && explain) {
    std::cerr << "error: --json and --explain are mutually exclusive "
                 "(each emits one document)\n";
    return 2;
  }
  if (explain && flags.get_string("explain", "true") == "json") {
    std::cerr << "error: --explain=json is not supported with --online\n";
    return 2;
  }

  AdmissionSession::Config config;
  config.processors = static_cast<int>(flags.get_int("m", trace.processors));
  if (config.processors < 1) {
    std::cerr << "error: --m must be >= 1\n";
    return 2;
  }
  config.partition.variant = variant;

  AdmissionSession session(config);
  std::vector<OnlineEventReport> reports;
  reports.reserve(trace.events.size());
  const PerfCounters before = perf_counters();
  const OnlineReplayResult result = replay_online_trace(
      trace, session, [&](const OnlineEventReport& r) { reports.push_back(r); });
  const PerfCounters delta = perf_counters() - before;
  const MinprocsMemoStats memo = session.memo_stats();
  const std::uint64_t lookups = memo.hits + memo.misses;
  const double hit_rate =
      lookups == 0 ? 0.0
                   : static_cast<double>(memo.hits) / static_cast<double>(lookups);

  if (json) {
    std::cout << "{\n";
    std::cout << "  \"schema_version\": 1,\n";
    std::cout << "  \"trace\": \"" << json_escape(path) << "\",\n";
    std::cout << "  \"simd_backend\": \""
              << simd::to_string(simd::active_backend()) << "\",\n";
    std::cout << "  \"m\": " << config.processors << ",\n";
    std::cout << "  \"events\": " << result.events << ",\n";
    std::cout << "  \"applied\": " << result.applied << ",\n";
    std::cout << "  \"rejected\": " << result.rejected << ",\n";
    std::cout << "  \"final_schedulable\": "
              << (result.final_schedulable ? "true" : "false") << ",\n";
    std::cout << "  \"residents\": " << session.num_residents() << ",\n";
    std::cout << "  \"per_event\": [\n";
    for (std::size_t i = 0; i < reports.size(); ++i) {
      const OnlineEventReport& r = reports[i];
      std::cout << "    {\"index\": " << r.index << ", \"event\": \""
                << to_string(r.kind) << "\", \"applied\": "
                << (r.outcome.applied ? "true" : "false")
                << ", \"schedulable\": "
                << (r.outcome.schedulable ? "true" : "false")
                << ", \"latency_us\": " << r.latency_us
                << ", \"residents\": " << r.residents_after
                << ", \"bins_revalidated\": " << r.outcome.bins_revalidated
                << ", \"memo_hit\": " << (r.outcome.memo_hit ? "true" : "false")
                << "}" << (i + 1 < reports.size() ? "," : "") << "\n";
    }
    std::cout << "  ],\n";
    std::cout << "  \"counters\": {\"minprocs_memo_hits\": " << memo.hits
              << ", \"minprocs_memo_misses\": " << memo.misses
              << ", \"memo_hit_rate\": " << format_double(hit_rate)
              << ", \"partition_bins_revalidated\": "
              << delta.partition_bins_revalidated
              << ", \"ls_probes_pruned\": " << delta.ls_probes_pruned
              << ", \"ls_probes_blocked\": " << delta.ls_probes_blocked
              << ", \"simd_breakpoints_vectorized\": "
              << delta.simd_breakpoints_vectorized
              << ", \"total_latency_us\": " << result.total_latency_us
              << ", \"max_latency_us\": " << result.max_latency_us << "}\n";
    std::cout << "}\n";
    return result.final_schedulable ? 0 : 1;
  }

  std::cout << "Online replay of '" << path << "' on m=" << config.processors
            << " (" << trace.events.size() << " events):\n";
  Table table({"#", "event", "applied", "schedulable", "latency-us",
               "residents", "bins-probed", "memo-hit"});
  for (const OnlineEventReport& r : reports) {
    table.add_row({std::to_string(r.index), to_string(r.kind),
                   r.outcome.applied ? "yes" : "no",
                   r.outcome.schedulable ? "yes" : "NO",
                   std::to_string(r.latency_us),
                   std::to_string(r.residents_after),
                   std::to_string(r.outcome.bins_revalidated),
                   r.outcome.memo_hit ? "yes" : ""});
  }
  table.print(std::cout);
  const double mean_us =
      reports.empty() ? 0.0
                      : static_cast<double>(result.total_latency_us) /
                            static_cast<double>(reports.size());
  std::cout << result.applied << " applied, " << result.rejected
            << " rejected; latency mean " << fmt_double(mean_us, 1)
            << " us, max " << result.max_latency_us << " us\n";
  std::cout << "memo: " << memo.hits << "/" << lookups << " lookups hit ("
            << fmt_double(hit_rate * 100.0, 1) << "%); partition probes "
            << "replayed: " << delta.partition_bins_revalidated << "\n";
  std::cout << "final verdict on " << session.num_residents()
            << " residents: "
            << (result.final_schedulable ? "SCHEDULABLE" : "unschedulable")
            << "\n";

  if (explain) {
    std::vector<SessionTaskId> ids;
    const TaskSystem residents = session.resident_system(&ids);
    std::cout << "\nPhase-1 decisions for resident high-density tasks:\n";
    bool any = false;
    for (std::size_t i = 0; i < residents.size(); ++i) {
      const MinprocsProvenance* scan = session.scan_of(ids[i]);
      if (scan == nullptr) continue;  // low-density: no mu scan to show
      any = true;
      std::cout << "  task " << ids[i] << " ("
                << task_display_name(residents, i) << "): mu = "
                << scan->chosen_mu
                << (session.from_memo(ids[i]) ? " (memo cache)"
                                              : " (fresh scan)")
                << ", scan range [" << scan->scan_lb << ", " << scan->scan_cap
                << "]\n";
      for (const MinprocsProbeRecord& p : scan->probes) {
        std::cout << "    mu=" << p.mu << " -> makespan " << p.makespan
                  << (p.makespan <= residents[i].deadline() ? " <= D"
                                                            : " > D")
                  << "\n";
      }
    }
    if (!any) std::cout << "  (no high-density residents)\n";
  }
  return result.final_schedulable ? 0 : 1;
}

int run(const Flags& flags) {
  if (flags.has("example")) {
    std::cout << kExample;
    return 0;
  }
  if (flags.has("list-algos")) return list_algos();
  const std::string variant_str = flags.get_string("variant", "full");
  if (variant_str != "full" && variant_str != "literal") {
    std::cerr << "error: --variant takes 'full' or 'literal'\n";
    return 2;
  }
  const PartitionVariant variant = variant_str == "literal"
                                       ? PartitionVariant::kPaperLiteral
                                       : PartitionVariant::kFull;
  if (flags.has("online")) return run_online(flags, variant);
  const std::string path = flags.get_string("file", "");
  const int m = static_cast<int>(flags.get_int("m", 0));
  if (path.empty() || m < 1) return usage();

  TaskSystem system;
  try {
    std::ifstream in(path);
    if (!in) {
      std::cerr << "error: cannot open '" << path << "'\n";
      return 2;
    }
    system = parse_task_system(in);
  } catch (const ParseError& e) {
    std::cerr << "parse error in '" << path << "': " << e.what() << "\n";
    return 2;
  }

  const bool json = flags.has("json");
  const bool explain = flags.has("explain");
  // Bare --explain parses as "true"; --explain=json selects the document.
  const bool explain_as_json =
      explain && flags.get_string("explain", "true") == "json";
  if (json && explain) {
    std::cerr << "error: --json and --explain are mutually exclusive "
                 "(each emits one document; use --explain=json for the "
                 "machine-readable provenance)\n";
    return 2;
  }

  TraceDump trace_dump;
  trace_dump.path = flags.get_string("trace-out", "");
  if (!trace_dump.path.empty()) obs::set_tracing_enabled(true);

  if (flags.has("inject")) {
    FaultPlan plan;
    try {
      plan = parse_fault_plan(flags.get_string("inject", ""));
    } catch (const ParseError& e) {
      std::cerr << "error: bad --inject spec: " << e.what() << "\n";
      return 2;
    }
    FedconsOptions inj_options;
    inj_options.partition.variant = variant;
    if (plan.processor_failure.processor >= 0) {
      if (plan.processor_failure.processor >= m) {
        std::cerr << "error: failed processor "
                  << plan.processor_failure.processor
                  << " out of range for m=" << m << "\n";
        return 2;
      }
      const DegradedModeReport rep = degrade_on_processor_failure(
          system, m, plan.processor_failure, inj_options);
      if (json) {
        std::cout << degraded_report_json(system, rep);
      } else {
        std::cout << rep.describe(system);
      }
      return rep.full_reschedule ? 0 : 1;
    }
    return run_injection(system, m, plan, flags, inj_options);
  }

  const bool machine = json || explain_as_json;
  if (!machine) {
    std::cout << system.summary() << "\n";
    if (flags.has("dot")) {
      for (std::size_t i = 0; i < system.size(); ++i) {
        std::cout << system[i].graph().to_dot("task" + std::to_string(i + 1));
      }
    }

    auto nec = necessary_feasibility(system, m);
    std::cout << "Necessary conditions on m=" << m << ": "
              << (nec.passed ? "pass" : "FAIL (" + nec.failed_condition + ")")
              << "\n\n";
  }

  if (flags.has("algo")) {
    if (json || explain) {
      std::cerr << "error: --json/--explain are only supported with "
                   "--strategy=fedcons\n";
      return 2;
    }
    const std::string algo = flags.get_string("algo", "");
    TestPtr test;
    try {
      test = TestRegistry::global().make(algo);
    } catch (const ContractViolation&) {
      std::cerr << "error: unknown algorithm '" << algo
                << "' (see --list-algos)\n";
      return 2;
    }
    if (!test->supports(system)) {
      std::cerr << "error: " << test->name() << " handles "
                << to_string(test->max_deadline_class())
                << "-deadline systems; this system is "
                << to_string(system.deadline_class()) << "-deadline\n";
      return 2;
    }
    const bool ok = test->admits_checked(system, m);
    std::cout << test->name() << " on m=" << m << ": "
              << (ok ? "SCHEDULABLE" : "rejected") << "\n";
    return ok ? 0 : 1;
  }

  const std::string strategy = flags.get_string("strategy", "fedcons");
  FedconsOptions options;
  options.partition.variant = variant;
  options.record_provenance = explain;

  if ((json || explain) && strategy != "fedcons") {
    std::cerr << "error: --json/--explain are only supported with "
                 "--strategy=fedcons\n";
    return 2;
  }

  bool schedulable = false;
  FedconsResult fed_result;
  if (strategy == "fedcons") {
    if (system.deadline_class() == DeadlineClass::kArbitrary) {
      std::cerr << "error: system has D > T tasks; use "
                   "--strategy=arbfed or arbfed-clamp\n";
      return 2;
    }
    const PerfCounters before = perf_counters();
    const std::uint64_t reuses_before = workspace_reuse_count();
    fed_result = fedcons_schedule(system, m, options);
    schedulable = fed_result.success;
    if (json) {
      print_json_report(std::cout, path, m, system, fed_result,
                        perf_counters() - before,
                        workspace_reuse_count() - reuses_before);
      return schedulable ? 0 : 1;
    }
    if (explain_as_json) {
      std::cout << explain_json(system, *fed_result.provenance);
      return schedulable ? 0 : 1;
    }
    std::cout << fed_result.describe(system);
    if (explain) {
      std::cout << "\n" << explain_text(system, *fed_result.provenance);
    }
    if (schedulable && flags.has("gantt")) {
      for (const auto& c : fed_result.clusters) {
        std::cout << "\nTemplate schedule sigma for task " << c.task + 1
                  << " (cluster of " << c.num_processors << "):\n"
                  << render_gantt(c.sigma);
      }
    }
  } else if (strategy == "arbfed" || strategy == "arbfed-clamp") {
    auto arb = arbitrary_federated_schedule(
        system, m,
        strategy == "arbfed" ? ArbitraryStrategy::kPipelined
                             : ArbitraryStrategy::kClampToPeriod,
        options);
    std::cout << arb.describe(system);
    schedulable = arb.success;
    if (schedulable && flags.has("simulate")) {
      SimConfig cfg;
      cfg.horizon = flags.get_int("horizon", 100000);
      cfg.release = ReleaseModel::kSporadic;
      cfg.exec = ExecModel::kUniform;
      cfg.exec_lo = 0.5;
      cfg.seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
      SystemSimReport rep = simulate_arbitrary_system(system, arb, cfg);
      std::cout << "\nSimulation over " << cfg.horizon << " ticks: "
                << rep.total.jobs_released << " dag-jobs, "
                << rep.total.deadline_misses << " misses, max response "
                << rep.total.max_response_time << "\n";
      if (rep.total.deadline_misses != 0) return 1;
    }
  } else {
    return usage();
  }
  if (!schedulable) return 1;

  if (flags.has("margins") && strategy == "fedcons") {
    std::cout << "\nWCET growth margins (how far each budget can grow "
                 "before the verdict flips):\n";
    Table margins({"task", "margin"});
    SensitivityTest accept = [&options](const TaskSystem& s, int mm) {
      return fedcons_schedulable(s, mm, options);
    };
    for (const auto& tm : wcet_sensitivity(system, m, accept)) {
      std::string name = system[tm.task].name().empty()
                             ? "task" + std::to_string(tm.task + 1)
                             : system[tm.task].name();
      margins.add_row({name, fmt_double(tm.margin, 2) + "x"});
    }
    margins.add_row({"(all tasks)",
                     fmt_double(system_wcet_margin(system, m, accept), 2) +
                         "x"});
    margins.print(std::cout);
  }

  if (flags.has("simulate") && strategy == "fedcons") {
    SimConfig cfg;
    cfg.horizon = flags.get_int("horizon", 100000);
    cfg.release = ReleaseModel::kSporadic;
    cfg.exec = ExecModel::kUniform;
    cfg.exec_lo = 0.5;
    cfg.seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
    SystemSimReport rep = simulate_system(system, fed_result, cfg);
    std::cout << "\nSimulation over " << cfg.horizon << " ticks: "
              << rep.total.jobs_released << " dag-jobs, "
              << rep.total.deadline_misses << " misses, max response "
              << rep.total.max_response_time << "\n";
    if (rep.total.deadline_misses != 0) return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Flags flags(argc, argv);
    static constexpr std::string_view kAllowed[] = {
        "example", "list-algos", "file",    "m",        "simulate",
        "horizon", "seed",       "dot",     "gantt",    "margins",
        "strategy", "algo",      "variant", "json",     "explain",
        "trace-out", "inject",   "enforce", "online",
    };
    const auto unknown = flags.unknown_keys(kAllowed);
    if (!unknown.empty() || !flags.positional().empty()) {
      for (const auto& key : unknown) {
        std::cerr << "error: unknown flag --" << key << "\n";
      }
      for (const auto& arg : flags.positional()) {
        std::cerr << "error: unexpected argument '" << arg << "'\n";
      }
      return usage();
    }
    return run(flags);
  } catch (const std::exception& e) {
    // Malformed flag syntax, contract violations from absurd parameter
    // combinations, filesystem surprises: report and exit 2, never abort.
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
}
