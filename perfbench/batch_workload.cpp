// batch-campaign: what a researcher runs — fedcons_schedule on one thread
// over a seeded set from the E3 "mixed" preset on m = 8, normalized
// utilization 0.1 .. 0.9. Generation is set-up; analysis is the run.
//
// Correctness: every verdict (success, failure phase, failed task, μ and
// processors per cluster, bin membership) is digested. Every run decides the
// pinned set of seed % kPinnedSeeds and compares its digests with the pin
// file, so the gate never depends on the build agreeing with itself. The
// timed set is checked pass against pass and re-decided on the scalar SIMD
// backend.
#include <unistd.h>

#include <cmath>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "fedcons/core/io.h"
#include "fedcons/federated/fedcons_algorithm.h"
#include "fedcons/gen/presets.h"
#include "fedcons/simd/dispatch.h"
#include "fedcons/util/perf_counters.h"
#include "fedcons/util/rng.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace fedcons;

constexpr int kProcessors = 8;
constexpr double kLevels[] = {0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9};
constexpr std::size_t kSystems = 9 * 600;
constexpr int kSetupRepetitions = 8;  ///< 1 before the loop, 7 inside it
constexpr std::uint64_t kPinnedSeeds = 100;  ///< pins.txt covers [0, 100)
constexpr std::size_t kSpanEvery = 16;  ///< traced systems: 1 in N

std::vector<TaskSystem> generate_set(std::uint64_t seed) {
  const std::optional<WorkloadPreset> preset = find_preset("mixed");
  if (!preset) throw std::runtime_error("preset 'mixed' missing");
  std::vector<TaskSystem> out;
  out.reserve(kSystems);
  for (std::size_t i = 0; i < kSystems; ++i) {
    TaskSetParams p = preset->params;
    p.total_utilization = kLevels[i % std::size(kLevels)] * kProcessors;
    p.utilization_cap = kProcessors;
    Rng rng(seed * 0x9E3779B97F4A7C15ULL + i);
    out.push_back(generate_task_system(rng, p));
  }
  return out;
}

std::uint64_t inputs_digest(const std::vector<TaskSystem>& set) {
  Digest d;
  for (const TaskSystem& s : set) d.str(serialize_task_system(s));
  return d.value();
}

std::uint64_t verdict_digest(const FedconsResult& r) {
  Digest d;
  d.u64(r.success ? 1 : 0);
  d.u64(static_cast<std::uint64_t>(r.failure));
  d.u64(r.failed_task ? *r.failed_task : ~std::uint64_t{0});
  for (const ClusterAssignment& c : r.clusters) {
    d.u64(c.task);
    d.u64(static_cast<std::uint64_t>(c.first_processor));
    d.u64(static_cast<std::uint64_t>(c.num_processors));
  }
  d.u64(static_cast<std::uint64_t>(r.shared_processors));
  for (const auto& bin : r.shared_assignment) {
    d.u64(bin.size());
    for (const TaskId t : bin) d.u64(t);
  }
  return d.value();
}

std::vector<std::uint64_t> decide_all(const std::vector<TaskSystem>& set) {
  std::vector<std::uint64_t> out;
  out.reserve(set.size());
  for (const TaskSystem& s : set) {
    out.push_back(verdict_digest(fedcons_schedule(s, kProcessors)));
  }
  return out;
}

std::uint64_t set_digest(const std::vector<std::uint64_t>& verdicts) {
  Digest d;
  for (const std::uint64_t v : verdicts) d.u64(v);
  return d.value();
}

struct Pin {
  std::uint64_t inputs = 0;
  std::uint64_t verdicts = 0;
};

/// Pin file lines: "<seed> <inputs digest> <verdict digest>" (hex digests);
/// '#' starts a comment.
std::optional<Pin> find_pin(const std::string& path, std::uint64_t seed) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::uint64_t s = 0;
    std::string inputs, verdicts;
    if (!(fields >> s >> inputs >> verdicts)) continue;
    if (s == seed) {
      return Pin{std::stoull(inputs, nullptr, 16),
                 std::stoull(verdicts, nullptr, 16)};
    }
  }
  return std::nullopt;
}

std::string hex(std::uint64_t v) {
  std::ostringstream os;
  os << std::hex << v;
  return os.str();
}

/// Generates and decides the set of `pin_seed` and compares both digests
/// with its pin. Returns the systems that count as failed: none on a match,
/// the whole set when the pin is missing or either digest differs (a
/// changed generator must be re-pinned, or the gate would check nothing).
std::uint64_t check_pin(const std::string& path, std::uint64_t pin_seed,
                        Report& rep) {
  const std::vector<TaskSystem> set = generate_set(pin_seed);
  const std::uint64_t inputs = inputs_digest(set);
  const std::uint64_t verdicts = set_digest(decide_all(set));
  rep.stamp("pin_seed", std::to_string(pin_seed));
  const std::optional<Pin> pin = find_pin(path, pin_seed);
  std::string problem;
  if (!pin) {
    problem = "no pin for seed " + std::to_string(pin_seed);
  } else if (pin->inputs != inputs) {
    problem = "the generator produced other inputs than the pinned ones";
  } else if (pin->verdicts != verdicts) {
    problem = "verdict digest differs from the pinned one";
  }
  rep.stamp("pin", problem.empty() ? "match" : "MISMATCH");
  if (problem.empty()) return 0;
  rep.warnings.push_back("pin check failed: " + problem);
  return kSystems;
}

}  // namespace

void print_batch_pins(std::uint64_t first, std::uint64_t last) {
  std::cout << "# perfbench batch-campaign pins: <seed> <inputs digest> "
               "<verdict digest>\n";
  for (std::uint64_t seed = first; seed <= last; ++seed) {
    const std::vector<TaskSystem> set = generate_set(seed);
    std::cout << seed << " " << hex(inputs_digest(set)) << " "
              << hex(set_digest(decide_all(set))) << std::endl;
  }
}

Report run_batch(const RunConfig& config) {
  Report rep;
  rep.workload = config.workload;
  rep.stamp("processors", std::to_string(kProcessors));
  rep.stamp("systems", std::to_string(kSystems));

  // The pinned set is decided first and freed before the timed set exists,
  // so it does not raise the driver's peak RSS.
  std::uint64_t mismatches =
      check_pin(config.pins_path, config.seed % kPinnedSeeds, rep);

  // Set-up: the set is generated once before the untraced loop and, in the
  // end-to-end run, again in place at even intervals inside it, so the
  // repetitions sample the whole run. Interference only ever slows a repetition, so the fastest is
  // setup_s. Each regenerated set must decide exactly like the first.
  Samples gen_s;
  std::vector<TaskSystem> set;
  const auto generate = [&] {
    set.clear();
    const auto t0 = Clock::now();
    set = generate_set(config.seed);
    gen_s.add(us_between(t0, Clock::now()) * 1e-6);
  };
  generate();

  // Reference verdicts of the timed set (also warms caches).
  const std::vector<std::uint64_t> ref = decide_all(set);
  rep.stamp("inputs_digest", hex(inputs_digest(set)));
  rep.stamp("verdict_digest", hex(set_digest(ref)));

  // Untraced loop over the set. Each system keeps its fastest call over the
  // passes, since interference only ever slows a call; the end-to-end
  // figures come from those per-system times.
  std::uint64_t attempted = 0;
  std::vector<double> fastest_us(set.size(), HUGE_VAL);
  const auto untraced = [&](double seconds, int regenerations, double& busy) {
    const auto wall0 = Clock::now();
    const double cpu0 = thread_cpu_s();
    const auto span = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(seconds));
    const auto deadline = wall0 + span;
    Samples calls_us;
    int regenerated = 0;
    for (std::size_t i = 0;; i = (i + 1) % set.size(), ++attempted) {
      auto t0 = Clock::now();
      if (t0 >= deadline) break;
      if (regenerated < regenerations &&
          t0 >= wall0 + span * (regenerated + 1) / (regenerations + 1)) {
        generate();
        ++regenerated;
        t0 = Clock::now();
      }
      const FedconsResult r = fedcons_schedule(set[i], kProcessors);
      const double us = us_between(t0, Clock::now());
      calls_us.add(us);
      fastest_us[i] = std::min(fastest_us[i], us);
      if (verdict_digest(r) != ref[i]) ++mismatches;
    }
    busy = (thread_cpu_s() - cpu0) / (us_between(wall0, Clock::now()) * 1e-6);
    return calls_us;
  };

  double busy = 0.0;
  const double S = config.seconds;
  if (!config.trace) {
    const Samples calls_us = untraced(S, kSetupRepetitions - 1, busy);
    Samples per_system;
    for (const double us : fastest_us) {
      if (us != HUGE_VAL) per_system.add(us);
    }
    const std::string passes =
        std::to_string(calls_us.count() / set.size()) + " passes";
    rep.add("verdicts_per_s",
            1e6 * static_cast<double>(per_system.count()) / per_system.sum(),
            "1/s",
            "one thread, one pass at each system's fastest of " + passes +
                "; measured mean " +
                std::to_string(static_cast<long long>(1e6 / calls_us.mean())));
    for (const int p : {50, 90, 99}) {
      const Samples::Percentile q = per_system.percentile(p);
      rep.add("latency_p" + std::to_string(p) + "_us", q.value, "us",
              "systems=" + std::to_string(q.count) + " beyond=" +
                  std::to_string(q.beyond) + ", fastest of " + passes);
    }
    rep.add("setup_s", gen_s.min(), "s",
            "fastest of " + std::to_string(gen_s.count()) + " generations");
    rep.add("rss_peak_mb", vm_hwm_mb(::getpid()), "MB", "driver VmHWM");
    rep.add("driver.busy_frac", busy, "ratio");
  } else {
    const double untraced_mean = untraced(S / 3, 0, busy).mean();

    // Traced pass: fedcons_schedule, then the same verdict recomposed from
    // its public phases — minprocs per high-density task, partition_tasks
    // on the low-density rest — each timed with counter deltas.
    SpanRecorder spans(true, 1);
    Samples sched_us;
    double minprocs_us = 0, partition_us = 0;
    std::uint64_t minprocs_calls = 0, partition_calls = 0, systems = 0;
    PerfCounters minprocs_work, partition_work;
    const auto deadline = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                             std::chrono::duration<double>(S * 2 / 3));
    for (std::size_t i = 0; Clock::now() < deadline; i = (i + 1) % set.size()) {
      const TaskSystem& sys = set[i];
      const bool sampled = systems % kSpanEvery == 0;
      const std::uint64_t root = spans.next_id();
      const auto t0 = Clock::now();
      const FedconsResult r = fedcons_schedule(sys, kProcessors);
      const auto t1 = Clock::now();
      sched_us.add(us_between(t0, t1));
      if (verdict_digest(r) != ref[i]) ++mismatches;
      if (sampled) {
        spans.record("federated.fedcons_schedule", "federated", t0, t1, i + 1,
                     root);
      }

      int m_r = kProcessors;
      bool high_ok = true;
      std::vector<int> mus;
      for (const TaskId h : sys.high_density_tasks()) {
        const PerfCounters before = perf_counters();
        const auto a = Clock::now();
        const auto mp = minprocs(sys[h], m_r);
        const auto b = Clock::now();
        minprocs_work += perf_counters() - before;
        minprocs_us += us_between(a, b);
        ++minprocs_calls;
        if (sampled) {
          spans.record("federated.minprocs", "federated", a, b, i + 1, root);
        }
        if (!mp) {
          high_ok = false;
          break;
        }
        mus.push_back(mp->processors);
        m_r -= mp->processors;
      }
      bool composed_ok = false;
      if (high_ok) {
        std::vector<SporadicTask> seq;
        for (const TaskId l : sys.low_density_tasks()) {
          seq.push_back(sys[l].to_sequential());
        }
        const PerfCounters before = perf_counters();
        const auto a = Clock::now();
        const PartitionResult part = partition_tasks(seq, m_r);
        const auto b = Clock::now();
        partition_work += perf_counters() - before;
        partition_us += us_between(a, b);
        ++partition_calls;
        if (sampled) {
          spans.record("federated.partition_tasks", "federated", a, b, i + 1,
                       root);
        }
        composed_ok = part.success;
      }
      // The recomposition must agree with fedcons_schedule's verdict.
      bool same = composed_ok == r.success && mus.size() >= r.clusters.size();
      for (std::size_t k = 0; same && k < r.clusters.size(); ++k) {
        same = mus[k] == r.clusters[k].num_processors;
      }
      if (!same) ++mismatches;
      if (sampled) {
        spans.record_with_id(root, "batch.system", "batch", t0, Clock::now(),
                             i + 1);
      }
      ++systems;
      ++attempted;
    }
    const double n = static_cast<double>(std::max<std::uint64_t>(systems, 1));
    const double mp_calls = static_cast<double>(std::max<std::uint64_t>(minprocs_calls, 1));
    const double part_calls = static_cast<double>(std::max<std::uint64_t>(partition_calls, 1));
    rep.add("federated.minprocs_us", minprocs_us / mp_calls, "us",
            "calls=" + std::to_string(minprocs_calls));
    rep.add("listsched.ls_probes_per_minprocs",
            static_cast<double>(minprocs_work.minprocs_scan_iterations) / mp_calls,
            "count");
    rep.add("federated.partition_us", partition_us / part_calls, "us",
            "calls=" + std::to_string(partition_calls));
    rep.add("analysis.dbf_evals_per_system",
            static_cast<double>(partition_work.dbf_star_evaluations) / n, "count");
    rep.add("simd.breakpoints_certified_per_system",
            static_cast<double>(partition_work.simd_breakpoints_vectorized) / n,
            "count");
    rep.add("federated.fedcons_residual_us",
            sched_us.mean() - (minprocs_us + partition_us) / n, "us",
            "fedcons_schedule - minprocs - partition, per system");
    rep.add("gen.systems_per_s", static_cast<double>(kSystems) / gen_s.min(), "1/s");
    rep.add("driver.busy_frac", busy, "ratio");
    rep.add("trace_overhead_pct",
            (sched_us.mean() - untraced_mean) / untraced_mean * 100.0, "%",
            "fedcons_schedule mean time, traced vs untraced loop");
    const std::string trace_path = config.work_dir + "/perfbench-" +
                                   config.workload + "-s" +
                                   std::to_string(config.seed) + ".trace.json";
    write_chrome_trace(trace_path, {&spans});
    rep.stamp("span_file", trace_path);
  }

  // Re-decide the set on the scalar backend: verdicts are backend-invariant.
  if (simd::active_backend() != simd::SimdBackend::kScalar) {
    simd::force_backend(simd::SimdBackend::kScalar);
    const std::vector<std::uint64_t> scalar = decide_all(set);
    simd::force_backend(std::nullopt);
    for (std::size_t i = 0; i < set.size(); ++i) {
      if (scalar[i] != ref[i]) ++mismatches;
    }
  }
  // The pin, reference and scalar passes decided every system too.
  rep.attempted = attempted + 3 * kSystems;
  rep.mismatches = mismatches;
  rep.failed = mismatches;
  return rep;
}

}  // namespace perfbench
