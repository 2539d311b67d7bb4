// Experiment E3 — the paper's randomly-generated schedulability experiments
// (Section IV, concluding note): acceptance ratio vs normalized utilization.
//
// For each platform size m and each U_sum/m grid point, draws `trials` task
// systems and reports per-algorithm acceptance. The paper's qualitative
// claim to reproduce: FEDCONS "is generally overwhelmingly better than
// implied by the conservative bound of Theorem 1" — acceptance stays high
// far beyond the load at which a 3−1/m-speed guarantee alone would bite,
// and dominates the non-federated baselines whenever high-density tasks are
// present.
//
// Algorithms are rows of the engine's algorithm table, and trials run on the
// engine's deterministic batch runner: --threads=N parallelizes the sweep
// while --json output stays byte-identical for every N.
//
// Observability flags:
//   --metrics          collect per-trial latency / μ / bins-touched
//                      histograms (obs/metrics.h); printed as a table per
//                      sweep, or embedded per point under --json. The value
//                      histograms are thread-count-invariant; latency is
//                      wall-clock and is not.
//   --trace-out=FILE   span-trace the run and write Chrome trace-event JSON
//                      (open in Perfetto; see EXPERIMENTS.md).
#include <fstream>
#include <iostream>

#include "fedcons/expr/acceptance.h"
#include "fedcons/expr/reports.h"
#include "fedcons/obs/metrics.h"
#include "fedcons/obs/span_tracer.h"
#include "fedcons/sim/global_edf_sim.h"
#include "fedcons/util/flags.h"

using namespace fedcons;

namespace {

/// Optimistic empirical bracket for the global approach: survive a
/// synchronous-periodic WCET global-EDF simulation over a bounded horizon.
/// NOT a schedulability proof (see baselines/global_edf.h) — listed last and
/// flagged in the caption.
const Algorithm kGedfSimulationBracket{
    "GEDF-sim*",
    "empirical survival of a synchronous-periodic global-EDF simulation "
    "(optimistic bracket, not a proof)",
    DeadlineClass::kConstrained, [](const TaskSystem& s, int m) {
      if (s.empty()) return true;
      SimConfig cfg;
      Time max_period = 1;
      for (const auto& t : s) max_period = std::max(max_period, t.period());
      cfg.horizon = checked_mul(4, max_period);
      std::vector<std::vector<DagJobRelease>> releases;
      Rng rng(12345);
      for (const auto& t : s) {
        Rng child = rng.split();
        releases.push_back(generate_releases(t, cfg, child));
      }
      return simulate_global_edf(s, releases, m, cfg).deadline_misses == 0;
    }};

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  const bool csv = flags.get_bool("csv", false);
  const bool json = flags.get_bool("json", false);
  const int trials = static_cast<int>(flags.get_int("trials", 150));
  const int threads = static_cast<int>(flags.get_int("threads", 0));
  const std::uint64_t seed =
      static_cast<std::uint64_t>(flags.get_int("seed", 42));
  const bool metrics = flags.get_bool("metrics", false);
  if (metrics) obs::set_metrics_enabled(true);
  const std::string trace_out = flags.get_string("trace-out", "");
  if (!trace_out.empty()) obs::set_tracing_enabled(true);

  auto algorithms = standard_algorithms();
  algorithms.push_back(kGedfSimulationBracket);
  std::vector<SweepSection> sections;
  for (int m : {4, 8, 16}) {
    SweepConfig cfg;
    cfg.m = m;
    cfg.trials = trials;
    cfg.seed = seed + static_cast<std::uint64_t>(m);
    cfg.num_threads = threads;
    cfg.normalized_utils = {0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0};
    cfg.base.num_tasks = 2 * m;  // standard n = 2m convention
    cfg.base.period_min = 100;
    cfg.base.period_max = 50000;
    cfg.base.topology = DagTopology::kMixed;
    cfg.collect_metrics = metrics;
    auto points = run_acceptance_sweep(cfg, algorithms);
    if (json) {
      sections.push_back({"m=" + std::to_string(m), m, std::move(points)});
      continue;
    }
    const bool with_ci = flags.get_bool("ci", false);
    print_report(std::cout,
                 "E3: acceptance ratio vs U_sum/m  (m = " + std::to_string(m) +
                     ", n = " + std::to_string(cfg.base.num_tasks) +
                     " tasks, " + std::to_string(trials) + " systems/point)",
                 acceptance_table(points, algorithms, with_ci), csv);
    if (metrics) {
      obs::MetricsRegistry merged;
      for (const auto& p : points) merged.merge(p.metrics);
      print_report(std::cout,
                   "E3 metrics (m = " + std::to_string(m) +
                       "): per-trial latency and algorithm-shape histograms",
                   merged.to_table(), csv);
    }
  }
  if (json) {
    std::cout << sweep_report_json("e3_acceptance_vs_util", seed, algorithms,
                                   sections);
  }
  if (!trace_out.empty()) {
    std::ofstream out(trace_out);
    if (!out) {
      std::cerr << "error: cannot write trace to '" << trace_out << "'\n";
      return 2;
    }
    obs::write_chrome_trace(out);
  }
  if (json) return 0;
  std::cout << "Columns: NEC-upper = necessary-feasibility proxy (upper "
               "bounds every algorithm); GEDF-sim* = empirical survival of a "
               "synchronous-periodic global-EDF simulation — an OPTIMISTIC "
               "bracket, not a proof. Expected shape: FEDCONS ≈ 1 at low "
               "load, degrades near U/m → 1; P-SEQ collapses when "
               "high-density tasks appear; GEDF-density is the most "
               "pessimistic analytical test, GEDF-sim* the loosest upper "
               "indicator.\n";
  return 0;
}
