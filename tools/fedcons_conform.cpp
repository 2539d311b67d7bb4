// fedcons_conform — differential conformance harness driver.
//
// Modes (mutually exclusive):
//   (default)        run the randomized harness over the built-in battery
//   --demo-anomaly   build the Graham-anomaly exhibit (template replay vs
//                    online LS rerun on the same seed)
//   --isolation      fuzz the federated ISOLATION property: inject a fault
//                    plan against one task per trial and check no OTHER task
//                    misses (--enforce=on, default) or demonstrate the
//                    cascade supervision prevents (--enforce=off)
//   --online         differential fuzz of the incremental admission engine:
//                    randomized admit/release/swap traces, with the session
//                    verdict compared field-by-field against a full batch
//                    re-analysis after EVERY event; divergences shrink to
//                    minimal traces (--events N sets events per trial)
//   --replay=FILE    re-run a pinned artifact: conformance-/fault-schema
//                    artifacts must still reproduce their violation; online
//                    trace artifacts must conform (incremental == batch)
//   --list           print the available conformance entries
//
// Harness flags: --trials N --threads N --seed S --m M --horizon H
//   --exec-lo F --jitter F --util-lo F --util-hi F --shrink-budget N
//   --algos NAME[,NAME...]   (battery subset; demonstration entries such as
//                             FEDCONS@online-rerun may be named explicitly)
//   --out-dir DIR            (write one JSON artifact per violation)
//   --json                   (machine-readable report on stdout)
//   --trace-out FILE         (span-trace the run; Chrome trace-event JSON)
//
// Exit codes: 0 — success (zero violations / isolation held with
// enforcement on / a cascade was exhibited with enforcement off / artifact
// reproduced / demo exhibited); 1 — the run refuted its claim; 2 — usage or
// input error. Unknown or malformed flags exit 2 with usage.
#include <cstdint>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "fedcons/conform/anomaly_demo.h"
#include "fedcons/conform/artifact.h"
#include "fedcons/conform/harness.h"
#include "fedcons/conform/isolation.h"
#include "fedcons/conform/online_check.h"
#include "fedcons/conform/oracle.h"
#include "fedcons/core/io.h"
#include "fedcons/obs/span_tracer.h"
#include "fedcons/util/flags.h"
#include "fedcons/util/mini_json.h"

namespace {

using namespace fedcons;

std::vector<std::string> split_csv(const std::string& csv) {
  std::vector<std::string> out;
  std::stringstream stream(csv);
  std::string item;
  while (std::getline(stream, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

void print_outcome(std::ostream& os, const char* label,
                   const ConformanceOutcome& o) {
  os << "  " << label << ": supported=" << (o.supported ? "yes" : "no")
     << " admitted=" << (o.admitted ? "yes" : "no")
     << " jobs=" << o.sim.jobs_released << " misses=" << o.sim.deadline_misses
     << " max_lateness=" << o.sim.max_lateness << "\n";
}

/// Online traces are JSONL opening with a {"format": ...} header line. A
/// repro artifact is one JSON object, whose first line either does not
/// parse alone or carries "schema" instead.
bool is_online_trace(const std::string& text) {
  const std::size_t start = text.find_first_not_of(" \t\r\n");
  if (start == std::string::npos) return false;
  const std::string first_line =
      text.substr(start, text.find('\n', start) - start);
  try {
    return parse_mini_json(first_line).count("format") != 0;
  } catch (const ParseError&) {
    return false;
  }
}

int usage() {
  std::cerr << "usage: fedcons_conform [--list | --demo-anomaly | "
               "--isolation | --online | --replay=FILE]\n"
               "                       [--events N]  (online: events per "
               "trial)\n"
               "                       [--trials N] [--threads N] "
               "[--seed S] [--m M] [--enforce=on|off]\n"
               "                       [--util-lo F] [--util-hi F] "
               "[--shrink-budget N] [--algos A,B]\n"
               "                       [--out-dir DIR] [--json] "
               "[--trace-out FILE]\n";
  return 2;
}

/// Reads the flags every fuzz mode shares into `config`; a flag left out
/// keeps the config's own default.
template <typename Config>
void read_fuzz_flags(const Flags& flags, Config& config) {
  config.trials = flags.get_int("trials", config.trials);
  config.num_threads = flags.get_int("threads", config.num_threads, 0);
  config.master_seed = flags.get_int("seed", config.master_seed);
  config.m = flags.get_int("m", config.m, 1);
  config.util_lo = flags.get_double("util-lo", config.util_lo);
  config.util_hi = flags.get_double("util-hi", config.util_hi);
  config.shrink_budget = flags.get_int("shrink-budget", config.shrink_budget);
}

/// The simulation flags of the modes that replay admitted systems.
void read_sim_flags(const Flags& flags, SimConfig& sim) {
  sim.horizon = flags.get_int("horizon", sim.horizon);
  sim.exec_lo = flags.get_double("exec-lo", sim.exec_lo);
  sim.jitter_frac = flags.get_double("jitter", sim.jitter_frac);
}

int run_replay(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::cerr << "error: cannot open artifact " << path << "\n";
    return 2;
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();

  // Online traces replay through the incremental session and must CONFORM;
  // repro artifacts replay by their parsed schema and must still reproduce
  // their violation.
  if (is_online_trace(text)) {
    const OnlineTrace trace = parse_online_trace(text);
    std::cout << "online trace " << path << "\n  processors: "
              << trace.processors << "  events: " << trace.events.size()
              << "\n";
    const std::optional<std::string> diff = check_online_trace(trace);
    if (!diff.has_value()) {
      std::cout << "incremental == batch after every event (conforms)\n";
      return 0;
    }
    std::cout << "DIVERGENCE: " << *diff << "\n";
    return 1;
  }

  const ViolationArtifact artifact = parse_artifact(text);
  const ConformanceOutcome outcome = replay_artifact(artifact);
  const char* what = "violation";
  if (artifact.fault_plan.has_value()) {
    what = "cross-task violation";
    std::cout << "fault artifact " << path << "\n"
              << "  plan: " << format_fault_plan(*artifact.fault_plan) << "\n"
              << "  supervision: " << to_string(artifact.supervision)
              << "  m: " << artifact.m << "  sim seed: " << artifact.sim.seed
              << "\n  note: " << artifact.note << "\n";
    print_outcome(std::cout, "replay (cross-task)", outcome);
  } else {
    std::cout << "artifact " << path << "\n"
              << "  algorithm: " << artifact.algorithm << "\n"
              << "  m: " << artifact.m << "  sim seed: " << artifact.sim.seed
              << "  note: " << artifact.note << "\n";
    print_outcome(std::cout, "replay", outcome);
  }
  if (outcome.violation()) {
    std::cout << what << " REPRODUCED\n";
    return 0;
  }
  std::cout << what << " did NOT reproduce\n";
  return 1;
}

int run_isolation(const Flags& flags) {
  IsolationConfig config = default_isolation_config();
  read_fuzz_flags(flags, config);
  read_sim_flags(flags, config.sim);
  const std::string enforce_str = flags.get_string("enforce", "on");
  if (enforce_str != "on" && enforce_str != "off") {
    std::cerr << "error: --enforce takes 'on' or 'off'\n";
    return 2;
  }
  const bool enforcing = enforce_str == "on";
  config.supervision =
      enforcing ? SupervisionMode::kEnforce : SupervisionMode::kNone;

  const IsolationReport report = run_isolation_fuzz(config);

  if (flags.get_bool("json", false)) {
    std::cout << isolation_report_json(report);
  } else {
    std::cout << "isolation: " << report.trials << " trials (" <<
        report.admitted << " admitted), m=" << report.m << ", supervision "
              << to_string(report.supervision) << ", master_seed="
              << config.master_seed << "\n"
              << "  target misses (faulted tasks):   "
              << report.target_misses << "\n"
              << "  cross misses (innocent tasks):   " << report.cross_misses
              << "\n"
              << "  enforcement events: "
              << report.counters.fault_enforcements << " ("
              << report.counters.fault_injections << " injected jobs)\n";
  }

  if (flags.has("out-dir") && !report.incidents.empty()) {
    const std::filesystem::path dir(flags.get_string("out-dir", "."));
    std::filesystem::create_directories(dir);
    for (const auto& inc : report.incidents) {
      const auto path =
          dir / ("isolation-trial" + std::to_string(inc.trial) + ".json");
      std::ofstream out(path);
      out << to_json(inc.artifact);
      std::cout << "wrote " << path.string() << "\n";
    }
  }
  for (const auto& inc : report.incidents) {
    std::cout << "INCIDENT trial " << inc.trial << " target " << inc.target
              << " plan [" << format_fault_plan(inc.plan)
              << "]: cross misses=" << inc.cross_observed.deadline_misses
              << " minimized to m=" << inc.artifact.m << ", "
              << parse_task_system(inc.artifact.system_text).size()
              << " task(s) in " << inc.shrink_probes << " probes\n";
  }
  // Enforcement ON claims isolation (incidents refute it); enforcement OFF
  // is the demonstration run — finding no cascade means the demo failed.
  if (enforcing) return report.incidents.empty() ? 0 : 1;
  return report.incidents.empty() ? 1 : 0;
}

int run_online(const Flags& flags) {
  OnlineFuzzConfig config;
  read_fuzz_flags(flags, config);
  config.events_per_trial = flags.get_int("events", config.events_per_trial);

  const OnlineFuzzReport report = run_online_fuzz(config);

  if (flags.get_bool("json", false)) {
    std::cout << online_fuzz_report_json(report);
  } else {
    const std::uint64_t lookups = report.memo_hits + report.memo_misses;
    std::cout << "online: " << report.trials << " trials, " << report.events
              << " events (" << report.applied << " applied, "
              << report.rejected << " rejected), m=" << config.m
              << ", master_seed=" << config.master_seed << "\n"
              << "  memo: " << report.memo_hits << " hits / " << lookups
              << " lookups\n"
              << "  partition probes replayed: " << report.bins_revalidated
              << "\n";
  }

  if (flags.has("out-dir") && !report.divergences.empty()) {
    const std::filesystem::path dir(flags.get_string("out-dir", "."));
    std::filesystem::create_directories(dir);
    for (const auto& d : report.divergences) {
      const auto path =
          dir / ("online-trial" + std::to_string(d.trial) + ".trace.json");
      std::ofstream out(path);
      out << d.trace_text;
      std::cout << "wrote " << path.string() << "\n";
    }
  }
  for (const auto& d : report.divergences) {
    std::cout << "DIVERGENCE trial " << d.trial << ": " << d.detail
              << " (minimized " << d.original_events << " -> "
              << d.minimized_events << " events in " << d.shrink_probes
              << " probes)\n";
  }
  return report.divergences.empty() ? 0 : 1;
}

int run_demo() {
  const AnomalyDemoReport report = run_anomaly_demo();
  if (!report.found) {
    std::cout << "no refuting seed found within budget\n";
    return 1;
  }
  std::cout << "Graham-anomaly exhibit (same system, m, and seed "
            << report.seed << "):\n";
  print_outcome(std::cout, "kOnlineRerun   ", report.online);
  print_outcome(std::cout, "kTemplateReplay", report.replay);
  std::cout << "online LS rerun missed " << report.online.sim.deadline_misses
            << " deadline(s); template replay missed "
            << report.replay.sim.deadline_misses << "\n";
  const bool exhibited = report.online.sim.deadline_misses > 0 &&
                         report.replay.sim.deadline_misses == 0;
  return exhibited ? 0 : 1;
}

int run_harness(const Flags& flags) {
  ConformConfig config = default_conform_config();
  read_fuzz_flags(flags, config);
  read_sim_flags(flags, config.sim);

  std::vector<ConformanceEntry> entries;
  if (flags.has("algos")) {
    for (const std::string& name : split_csv(flags.get_string("algos", ""))) {
      entries.push_back(find_conformance_entry(name));
    }
    if (entries.empty()) {
      std::cerr << "error: --algos selected no entries\n";
      return 2;
    }
  } else {
    entries = builtin_conformance_entries();
  }

  const ConformReport report = run_conformance(config, entries);

  if (flags.get_bool("json", false)) {
    std::cout << conform_report_json(report);
  } else {
    std::cout << "conformance: " << report.trials << " trials, m=" << report.m
              << ", master_seed=" << config.master_seed
              << ", threads=" << config.num_threads << "\n";
    for (const auto& e : report.entries) {
      std::cout << "  " << e.name << ": supported=" << e.supported
                << " admitted=" << e.admitted << " violations=" << e.violations
                << " jobs=" << e.jobs_released << "\n";
    }
    std::cout << "counters: conform_trials=" << report.counters.conform_trials
              << " conform_violations=" << report.counters.conform_violations
              << " conform_shrink_steps="
              << report.counters.conform_shrink_steps << "\n";
  }

  if (flags.has("out-dir") && !report.violations.empty()) {
    const std::filesystem::path dir(flags.get_string("out-dir", "."));
    std::filesystem::create_directories(dir);
    for (const auto& v : report.violations) {
      std::string slug = v.algorithm;
      for (char& c : slug) {
        if (c == '@' || c == '/' || c == ' ') c = '_';
      }
      const auto path =
          dir / ("conform-" + slug + "-trial" + std::to_string(v.trial) +
                 ".json");
      std::ofstream out(path);
      out << to_json(v.artifact);
      std::cout << "wrote " << path.string() << "\n";
    }
  }
  for (const auto& v : report.violations) {
    std::cout << "VIOLATION trial " << v.trial << " " << v.algorithm
              << ": misses=" << v.observed.deadline_misses
              << " minimized to m=" << v.artifact.m << ", "
              << parse_task_system(v.artifact.system_text).size()
              << " task(s) in " << v.shrink_probes << " probes\n";
  }
  return report.violations.empty() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Flags flags(argc, argv);
    static constexpr std::string_view kAllowed[] = {
        "list",    "demo-anomaly", "replay",  "isolation",     "enforce",
        "trials",  "threads",      "seed",    "m",             "horizon",
        "exec-lo", "jitter",       "util-lo", "util-hi",       "shrink-budget",
        "algos",   "out-dir",      "json",    "trace-out",     "online",
        "events",
    };
    const auto errors = flags.usage_errors(kAllowed);
    for (const auto& e : errors) std::cerr << "error: " << e << "\n";
    if (!errors.empty()) return usage();
    const std::string trace_out = flags.get_string("trace-out", "");
    if (!trace_out.empty()) obs::set_tracing_enabled(true);
    int rc;
    if (flags.get_bool("list", false)) {
      for (const auto& e : builtin_conformance_entries()) {
        std::cout << e.name << "\n";
      }
      for (const auto& e : demonstration_conformance_entries()) {
        std::cout << e.name << " (demonstration)\n";
      }
      rc = 0;
    } else if (flags.get_bool("demo-anomaly", false)) {
      rc = run_demo();
    } else if (flags.get_bool("isolation", false)) {
      rc = run_isolation(flags);
    } else if (flags.get_bool("online", false)) {
      rc = run_online(flags);
    } else if (flags.has("replay")) {
      rc = run_replay(flags.get_string("replay", ""));
    } else {
      rc = run_harness(flags);
    }
    if (!trace_out.empty()) {
      std::ofstream out(trace_out);
      if (!out) {
        std::cerr << "error: cannot write trace to '" << trace_out << "'\n";
        return 2;
      }
      obs::write_chrome_trace(out);
    }
    return rc;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
}
