// perfbench_driver — the repository benchmark's measuring process.
//
// Usage (normally through perfbench/run.py, which builds it first):
//   perfbench_driver --workload=NAME|all --seed=N --seconds=S --trace=0|1
//                    --work-dir=DIR --serve-bin=PATH --pins=PATH
//                    [--commit=HASH]
//   perfbench_driver --pin-seeds=FIRST-LAST     # print batch-campaign pins
//
// Workloads: batch-campaign, serve-low ("all" runs both in this one
// process, in that order). For each it prints every metric with its unit, the
// environment stamp, failed_frac, and one line "PERFBENCH_REPORT <json>".
// --trace=0 measures the end-to-end metrics; --trace=1 is the separate
// per-layer run, which also writes a Perfetto-loadable span file to DIR.
//
// The CPUs this process may use are split in two disjoint halves: the
// daemon gets the lower half, this process (client threads, batch loop) the
// upper. Exit 0 when every verdict matched, 1 on any mismatch, 2 on usage
// errors or a non-Release build, 3 when a run failed outright.
#include <sched.h>
#include <unistd.h>

#include <fstream>
#include <iostream>
#include <map>
#include <stdexcept>
#include <string>

#include "fedcons/simd/dispatch.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE ""
#endif

namespace perfbench {

namespace {

// batch-campaign first: its rss_peak_mb is this process's VmHWM, which the
// serve workloads' event logs would otherwise raise under "all".
constexpr const char* kWorkloads[] = {"batch-campaign", "serve-low"};

bool is_known_workload(const std::string& name) {
  for (const char* w : kWorkloads) {
    if (name == w) return true;
  }
  return false;
}

int usage(const std::string& why) {
  std::cerr << "perfbench_driver: " << why << "\n"
            << "usage: perfbench_driver --workload=NAME|all --seed=N "
               "--seconds=S --trace=0|1\n"
               "         --work-dir=DIR --serve-bin=PATH --pins=PATH "
               "[--commit=HASH]\n"
               "       perfbench_driver --pin-seeds=FIRST-LAST\n";
  return 2;
}

/// Splits the allowed CPUs into a daemon half and a driver half.
void split_cpus(RunConfig& config) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  sched_getaffinity(0, sizeof(allowed), &allowed);
  std::vector<int> cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &allowed)) cpus.push_back(c);
  }
  CPU_ZERO(&config.daemon_mask);
  CPU_ZERO(&config.driver_mask);
  if (cpus.size() < 2) {
    config.daemon_mask = allowed;
    config.driver_mask = allowed;
    config.pinned = false;
    return;
  }
  const std::size_t half = cpus.size() / 2;
  for (std::size_t i = 0; i < cpus.size(); ++i) {
    CPU_SET(cpus[i], i < half ? &config.daemon_mask : &config.driver_mask);
  }
  config.pinned =
      sched_setaffinity(0, sizeof(config.driver_mask), &config.driver_mask) == 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  std::map<std::string, std::string> args;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto eq = a.find('=');
    if (a.rfind("--", 0) != 0 || eq == std::string::npos) {
      return usage("expected --key=value, got '" + a + "'");
    }
    args[a.substr(2, eq - 2)] = a.substr(eq + 1);
  }
  if (std::string(PERFBENCH_BUILD_TYPE) != "Release") {
    std::cerr << "perfbench_driver: refusing to measure a '"
              << PERFBENCH_BUILD_TYPE << "' build; configure with "
              << "-DCMAKE_BUILD_TYPE=Release\n";
    return 2;
  }
  try {
    if (args.count("pin-seeds") != 0) {
      const std::string range = args["pin-seeds"];
      const auto dash = range.find('-');
      if (dash == std::string::npos) return usage("--pin-seeds=FIRST-LAST");
      print_batch_pins(std::stoull(range.substr(0, dash)),
                       std::stoull(range.substr(dash + 1)));
      return 0;
    }
    for (const char* key : {"workload", "seed", "seconds", "trace", "work-dir",
                            "serve-bin", "pins"}) {
      if (args.count(key) == 0) return usage(std::string("missing --") + key);
    }
    RunConfig base;
    base.seed = std::stoull(args["seed"]);
    base.seconds = std::stod(args["seconds"]);
    base.trace = args["trace"] == "1";
    base.work_dir = args["work-dir"];
    base.serve_bin = args["serve-bin"];
    base.pins_path = args["pins"];
    if (base.seconds <= 0 || (args["trace"] != "0" && args["trace"] != "1")) {
      return usage("--seconds must be > 0 and --trace 0 or 1");
    }
    std::vector<std::string> workloads;
    if (args["workload"] == "all") {
      workloads.assign(std::begin(kWorkloads), std::end(kWorkloads));
    } else if (is_known_workload(args["workload"])) {
      workloads.push_back(args["workload"]);
    } else {
      return usage("unknown workload '" + args["workload"] + "'");
    }
    split_cpus(base);

    bool all_match = true;
    for (const std::string& w : workloads) {
      RunConfig config = base;
      config.workload = w;
      Report rep = w == "serve-low" ? run_serve(config) : run_batch(config);
      std::vector<std::pair<std::string, std::string>> env = {
          {"nproc", std::to_string(sysconf(_SC_NPROCESSORS_ONLN))},
          {"pinned", config.pinned ? "yes" : "no (fewer than 2 CPUs)"},
          {"driver_cpus", mask_string(config.driver_mask)},
          {"daemon_cpus", mask_string(config.daemon_mask)},
          {"build_type", PERFBENCH_BUILD_TYPE},
          {"simd_backend",
           fedcons::simd::to_string(fedcons::simd::active_backend())},
          {"compiler", __VERSION__},
          {"commit", args.count("commit") != 0 ? args["commit"] : "unknown"},
          {"seed", std::to_string(config.seed)},
          {"seconds", args["seconds"]},
          {"trace", config.trace ? "1" : "0"}};
      env.insert(env.end(), rep.env.begin(), rep.env.end());
      rep.env = std::move(env);
      rep.print(std::cout);
      const std::string json = rep.to_json();
      std::cout << "PERFBENCH_REPORT " << json << std::endl;
      std::ofstream(config.work_dir + "/perfbench-" + w + "-s" +
                    std::to_string(config.seed) + "-t" + args["trace"] +
                    ".json")
          << json << "\n";
      all_match = all_match && rep.mismatches == 0;
    }
    return all_match ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "perfbench_driver: " << e.what() << "\n";
    return 3;
  }
}
