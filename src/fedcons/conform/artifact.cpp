#include "fedcons/conform/artifact.h"

#include <sstream>
#include <string>

#include "fedcons/conform/isolation.h"
#include "fedcons/conform/shrinker.h"
#include "fedcons/core/io.h"
#include "fedcons/sim/sim_wire.h"
#include "fedcons/util/check.h"
#include "fedcons/util/mini_json.h"

namespace fedcons {

namespace {

constexpr const char* kConformanceSchema = "fedcons-conformance-repro-v1";
constexpr const char* kFaultSchema = "fedcons-fault-repro-v1";

SupervisionMode parse_supervision(const std::string& name) {
  if (name == "none") return SupervisionMode::kNone;
  if (name == "enforce") return SupervisionMode::kEnforce;
  throw ParseError(1, "artifact JSON: unknown supervision mode " + name);
}

}  // namespace

std::string to_json(const ViolationArtifact& artifact) {
  std::ostringstream out;
  out << "{\n";
  if (artifact.fault_plan.has_value()) {
    out << "  \"schema\": \"" << kFaultSchema << "\",\n"
        << "  \"m\": " << artifact.m << ",\n"
        << "  \"supervision\": \"" << to_string(artifact.supervision)
        << "\",\n"
        << "  \"plan\": \""
        << json_escape(format_fault_plan(*artifact.fault_plan)) << "\",\n";
  } else {
    out << "  \"schema\": \"" << kConformanceSchema << "\",\n"
        << "  \"algorithm\": \"" << json_escape(artifact.algorithm) << "\",\n"
        << "  \"m\": " << artifact.m << ",\n";
  }
  out << "  \"sim\": {\n"
      << "    \"horizon\": " << artifact.sim.horizon << ",\n"
      << "    \"release\": \"" << release_model_name(artifact.sim.release)
      << "\",\n"
      << "    \"jitter_frac\": " << format_double(artifact.sim.jitter_frac)
      << ",\n"
      << "    \"exec\": \"" << exec_model_name(artifact.sim.exec) << "\",\n"
      << "    \"exec_lo\": " << format_double(artifact.sim.exec_lo) << ",\n"
      << "    \"seed\": " << artifact.sim.seed << "\n"
      << "  },\n"
      << "  \"note\": \"" << json_escape(artifact.note) << "\",\n"
      << "  \"observed\": {\n"
      << "    \"jobs_released\": " << artifact.observed.jobs_released << ",\n"
      << "    \"deadline_misses\": " << artifact.observed.deadline_misses
      << ",\n"
      << "    \"max_lateness\": " << artifact.observed.max_lateness << ",\n"
      << "    \"max_response_time\": " << artifact.observed.max_response_time
      << "\n"
      << "  },\n"
      << "  \"system\": \"" << json_escape(artifact.system_text) << "\"\n"
      << "}\n";
  return out.str();
}

ViolationArtifact parse_artifact(const std::string& json) {
  const auto fields = parse_mini_json(json);
  const std::string& schema = require_field(fields, "schema");
  ViolationArtifact artifact;
  if (schema == kFaultSchema) {
    artifact.supervision =
        parse_supervision(require_field(fields, "supervision"));
    artifact.fault_plan = parse_fault_plan(require_field(fields, "plan"));
  } else if (schema == kConformanceSchema) {
    artifact.algorithm = require_field(fields, "algorithm");
  } else {
    throw ParseError(1, "artifact JSON: unknown schema \"" + schema + "\"");
  }
  artifact.m = static_cast<int>(mini_json_int(require_field(fields, "m")));
  artifact.sim.horizon = mini_json_int(require_field(fields, "sim.horizon"));
  artifact.sim.release =
      parse_release_model(require_field(fields, "sim.release"));
  artifact.sim.jitter_frac =
      mini_json_double(require_field(fields, "sim.jitter_frac"));
  artifact.sim.exec = parse_exec_model(require_field(fields, "sim.exec"));
  artifact.sim.exec_lo = mini_json_double(require_field(fields, "sim.exec_lo"));
  artifact.sim.seed = mini_json_uint(require_field(fields, "sim.seed"));
  artifact.note = require_field(fields, "note");
  artifact.observed.jobs_released =
      mini_json_uint(require_field(fields, "observed.jobs_released"));
  artifact.observed.deadline_misses =
      mini_json_uint(require_field(fields, "observed.deadline_misses"));
  artifact.observed.max_lateness =
      mini_json_int(require_field(fields, "observed.max_lateness"));
  artifact.observed.max_response_time =
      mini_json_int(require_field(fields, "observed.max_response_time"));
  artifact.system_text = require_field(fields, "system");
  (void)parse_task_system(artifact.system_text);  // validate eagerly
  FEDCONS_EXPECTS(artifact.m >= 1);
  return artifact;
}

ConformanceOutcome replay_artifact(const ViolationArtifact& artifact) {
  const ConformanceEntry entry =
      artifact.fault_plan.has_value()
          ? make_isolation_entry(*artifact.fault_plan, artifact.supervision)
          : find_conformance_entry(artifact.algorithm);
  const TaskSystem system = parse_task_system(artifact.system_text);
  return entry.run(system, artifact.m, artifact.sim);
}

std::size_t pin_violation(const ConformanceEntry& entry,
                          const std::string& system_text, int m,
                          const SimConfig& sim, std::size_t shrink_budget,
                          const std::string& found_by,
                          ViolationArtifact& artifact) {
  const ShrinkResult shrunk = shrink_violation(
      entry, parse_task_system(system_text), m, sim, shrink_budget);
  artifact.m = shrunk.m;
  artifact.sim = sim;
  artifact.note = found_by + ", minimized in " +
                  std::to_string(shrunk.reductions) + " reductions / " +
                  std::to_string(shrunk.probes) + " probes";
  artifact.observed = entry.run(shrunk.system, shrunk.m, sim).sim;
  artifact.system_text = serialize_task_system(shrunk.system);
  return shrunk.probes;
}

}  // namespace fedcons
