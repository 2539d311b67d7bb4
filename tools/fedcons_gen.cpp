// fedcons_gen — generate random workload files for fedcons_cli.
//
// Usage:
//   fedcons_gen --preset=avionics --seed=1                > w.tasks
//   fedcons_gen --tasks=12 --util=4.0 --topology=layered  > w.tasks
//   fedcons_gen --list-presets
//
// Generator knobs (override preset values when both given):
//   --tasks=N --util=U --util-cap=C --period-min=P --period-max=P
//   --dratio-min=R --dratio-max=R --topology=layered|fork-join|mixed
//
// Unknown or malformed flags exit 2 with usage.
#include <iostream>

#include "fedcons/core/io.h"
#include "fedcons/gen/presets.h"
#include "fedcons/util/flags.h"
#include "fedcons/util/rng.h"

using namespace fedcons;

namespace {

int usage() {
  std::cerr << "usage: fedcons_gen [--preset=NAME] [--seed=N] [--tasks=N]\n"
               "                   [--util=U] [--util-cap=C] "
               "[--period-min=P] [--period-max=P]\n"
               "                   [--dratio-min=R] [--dratio-max=R]\n"
               "                   [--topology=layered|fork-join|mixed]\n"
               "       fedcons_gen --list-presets\n";
  return 2;
}

int run(const Flags& flags) {
  if (flags.has("list-presets")) {
    std::cout << describe_presets();
    return 0;
  }

  TaskSetParams params;  // "mixed"-ish defaults
  const std::string preset_name = flags.get_string("preset", "");
  if (!preset_name.empty()) {
    auto preset = find_preset(preset_name);
    if (!preset.has_value()) {
      std::cerr << "unknown preset '" << preset_name << "'; available:\n"
                << describe_presets();
      return 2;
    }
    params = preset->params;
  }

  params.num_tasks = flags.get_int("tasks", params.num_tasks, 1);
  params.total_utilization =
      flags.get_double("util", params.total_utilization);
  params.utilization_cap =
      flags.get_double("util-cap", params.utilization_cap);
  params.period_min = flags.get_double("period-min", params.period_min);
  params.period_max = flags.get_double("period-max", params.period_max);
  params.deadline_ratio_min =
      flags.get_double("dratio-min", params.deadline_ratio_min);
  params.deadline_ratio_max =
      flags.get_double("dratio-max", params.deadline_ratio_max);
  const std::string topo = flags.get_string("topology", "");
  if (topo == "layered") params.topology = DagTopology::kLayered;
  else if (topo == "fork-join") params.topology = DagTopology::kForkJoin;
  else if (topo == "mixed") params.topology = DagTopology::kMixed;
  else if (!topo.empty()) {
    std::cerr << "unknown topology '" << topo
              << "' (layered | fork-join | mixed)\n";
    return 2;
  }

  Rng rng(flags.get_int<std::uint64_t>("seed", 1));
  GenerationInfo info;
  TaskSystem sys = generate_task_system(rng, params, &info);
  serialize_task_system(sys, std::cout);
  std::cerr << "# generated " << sys.size() << " tasks, U_sum ≈ "
            << info.achieved_utilization << " ("
            << info.deadline_clamps << " deadline clamp(s))\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Flags flags(argc, argv);
    static constexpr std::string_view kAllowed[] = {
        "list-presets", "preset",     "tasks",      "util",
        "util-cap",     "period-min", "period-max", "dratio-min",
        "dratio-max",   "topology",   "seed",
    };
    const auto errors = flags.usage_errors(kAllowed);
    for (const auto& e : errors) std::cerr << "error: " << e << "\n";
    if (!errors.empty()) return usage();
    return run(flags);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
}
