#include "fedcons/sim/release_generator.h"

#include <algorithm>
#include <cmath>

#include "fedcons/util/check.h"

namespace fedcons {

namespace {

Time draw_exec(Rng& rng, const SimConfig& config, Time wcet) {
  switch (config.exec) {
    case ExecModel::kAlwaysWcet:
      return wcet;
    case ExecModel::kUniform: {
      const Time lo = std::max<Time>(
          1, static_cast<Time>(std::ceil(config.exec_lo *
                                         static_cast<double>(wcet))));
      return rng.uniform_int(std::min(lo, wcet), wcet);
    }
  }
  return wcet;
}

/// A sporadic gap adds up to ⌊jitter_frac·T⌋ ticks, so that product must be
/// a Time: a cast of nan, inf or a finite overflow would be garbage.
void expect_jitter_fits(const SimConfig& config, Time period) {
  const double jitter = config.jitter_frac * static_cast<double>(period);
  FEDCONS_EXPECTS_MSG(jitter >= 0.0 && jitter < kTimeRealLimit,
                      "jitter_frac * period must lie in [0, 2^63)");
}

Time next_release(Rng& rng, const SimConfig& config, Time current,
                  Time period) {
  Time gap = period;
  if (config.release == ReleaseModel::kSporadic) {
    const Time jitter_max = static_cast<Time>(
        std::floor(config.jitter_frac * static_cast<double>(period)));
    if (jitter_max > 0) gap = checked_add(gap, rng.uniform_int(0, jitter_max));
  }
  return checked_add(current, gap);
}

}  // namespace

std::vector<DagJobRelease> generate_releases(const DagTask& task,
                                             const SimConfig& config,
                                             Rng& rng) {
  FEDCONS_EXPECTS(config.horizon >= 1);
  expect_jitter_fits(config, task.period());
  FEDCONS_EXPECTS(config.exec_lo > 0.0 && config.exec_lo <= 1.0);
  std::vector<DagJobRelease> out;
  const std::size_t n = task.graph().num_vertices();
  for (Time r = 0; checked_add(r, task.deadline()) <= config.horizon;
       r = next_release(rng, config, r, task.period())) {
    DagJobRelease job;
    job.release = r;
    job.exec_times.resize(n);
    for (std::size_t v = 0; v < n; ++v) {
      job.exec_times[v] =
          draw_exec(rng, config, task.graph().wcet(static_cast<VertexId>(v)));
    }
    out.push_back(std::move(job));
  }
  return out;
}

std::vector<JobRelease> generate_sequential_releases(Time wcet, Time deadline,
                                                     Time period,
                                                     const SimConfig& config,
                                                     Rng& rng) {
  FEDCONS_EXPECTS(wcet >= 1 && deadline >= 1 && period >= 1);
  expect_jitter_fits(config, period);
  std::vector<JobRelease> out;
  for (Time r = 0; checked_add(r, deadline) <= config.horizon;
       r = next_release(rng, config, r, period)) {
    JobRelease job;
    job.release = r;
    job.exec_time = draw_exec(rng, config, wcet);
    job.abs_deadline = r + deadline;
    out.push_back(job);
  }
  return out;
}

}  // namespace fedcons
