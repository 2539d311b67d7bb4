// The perfbench workloads. Each one takes the run's seed, generates its own
// inputs, measures for the requested time, checks every verdict, and fills a
// Report. See NOTES.md for why each workload exists and which layers it
// loads.
#pragma once

#include <sched.h>

#include <cstdint>
#include <string>

#include "bench_util.h"

namespace perfbench {

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;        ///< per-layer run: spans, stage echo, timings
  std::string work_dir;      ///< sockets, span files (inside the checkout)
  std::string serve_bin;     ///< fedcons_serve executable
  std::string pins_path;     ///< batch-campaign verdict pins
  cpu_set_t driver_mask{};   ///< this process (client threads, batch loop)
  cpu_set_t daemon_mask{};   ///< the spawned daemon
  bool pinned = false;       ///< masks are disjoint and applied
};

/// serve-low: a spawned fedcons_serve daemon driven by two
/// client connections through a closed-loop and an open-loop phase, then
/// every session's event log replayed in-process.
[[nodiscard]] Report run_serve(const RunConfig& config);

/// batch-campaign: fedcons_schedule on one thread over a seeded E3 set.
[[nodiscard]] Report run_batch(const RunConfig& config);

/// Prints "<seed> <inputs digest> <verdict digest>" for each seed in
/// [first, last] — the lines of the batch-campaign pin file.
void print_batch_pins(std::uint64_t first, std::uint64_t last);

}  // namespace perfbench
