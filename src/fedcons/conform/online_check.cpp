#include "fedcons/conform/online_check.h"

#include <algorithm>
#include <utility>

#include "fedcons/engine/batch_runner.h"
#include "fedcons/federated/fedcons_algorithm.h"
#include "fedcons/gen/taskset_gen.h"
#include "fedcons/util/check.h"
#include "fedcons/util/mini_json.h"

namespace fedcons {

namespace {

FedconsOptions batch_options(const AdmissionSession::Config& cfg) {
  FedconsOptions o;
  o.list_policy = cfg.list_policy;
  o.partition = cfg.partition;
  return o;
}

std::string show(std::optional<SessionTaskId> id) {
  return id.has_value() ? std::to_string(*id) : std::string("none");
}

/// Field-by-field structural comparison. `ids[i]` is the session id of
/// resident-system index i, mapping batch TaskIds into session id space.
std::optional<std::string> compare_verdicts(
    const SessionVerdict& s, const FedconsResult& b,
    const std::vector<SessionTaskId>& ids) {
  if (s.success != b.success) {
    return "success: session=" + std::to_string(s.success) +
           " batch=" + std::to_string(b.success);
  }
  if (s.failure != b.failure) {
    return std::string("failure: session=") + to_string(s.failure) +
           " batch=" + to_string(b.failure);
  }
  std::optional<SessionTaskId> batch_failed;
  if (b.failed_task.has_value()) batch_failed = ids.at(*b.failed_task);
  if (s.failed_task != batch_failed) {
    return "failed_task: session=" + show(s.failed_task) +
           " batch=" + show(batch_failed);
  }
  if (s.clusters.size() != b.clusters.size()) {
    return "cluster count: session=" + std::to_string(s.clusters.size()) +
           " batch=" + std::to_string(b.clusters.size());
  }
  for (std::size_t c = 0; c < s.clusters.size(); ++c) {
    const SessionCluster& sc = s.clusters[c];
    const ClusterAssignment& bc = b.clusters[c];
    const std::string at = "cluster " + std::to_string(c) + " ";
    if (sc.task != ids.at(bc.task)) {
      return at + "task: session=" + std::to_string(sc.task) +
             " batch=" + std::to_string(ids.at(bc.task));
    }
    if (sc.num_processors != bc.num_processors) {
      return at + "mu: session=" + std::to_string(sc.num_processors) +
             " batch=" + std::to_string(bc.num_processors);
    }
    if (sc.first_processor != bc.first_processor) {
      return at + "first_processor: session=" +
             std::to_string(sc.first_processor) +
             " batch=" + std::to_string(bc.first_processor);
    }
    if (sc.sigma_makespan != bc.sigma.makespan()) {
      return at + "sigma makespan: session=" +
             std::to_string(sc.sigma_makespan) +
             " batch=" + std::to_string(bc.sigma.makespan());
    }
  }
  // The batch result leaves the shared-pool fields defaulted on failure;
  // they are comparable only on success (the session always knows them).
  if (!s.success) return std::nullopt;
  if (s.shared_processors != b.shared_processors) {
    return "shared_processors: session=" +
           std::to_string(s.shared_processors) +
           " batch=" + std::to_string(b.shared_processors);
  }
  if (s.first_shared_processor != b.first_shared_processor) {
    return "first_shared_processor: session=" +
           std::to_string(s.first_shared_processor) +
           " batch=" + std::to_string(b.first_shared_processor);
  }
  if (s.shared_assignment.size() != b.shared_assignment.size()) {
    return "shared bin count: session=" +
           std::to_string(s.shared_assignment.size()) +
           " batch=" + std::to_string(b.shared_assignment.size());
  }
  for (std::size_t k = 0; k < s.shared_assignment.size(); ++k) {
    const auto& sb = s.shared_assignment[k];
    const auto& bb = b.shared_assignment[k];
    const std::string at = "shared bin " + std::to_string(k) + " ";
    if (sb.size() != bb.size()) {
      return at + "size: session=" + std::to_string(sb.size()) +
             " batch=" + std::to_string(bb.size());
    }
    for (std::size_t j = 0; j < sb.size(); ++j) {
      if (sb[j] != ids.at(bb[j])) {
        return at + "slot " + std::to_string(j) +
               ": session=" + std::to_string(sb[j]) +
               " batch=" + std::to_string(ids.at(bb[j]));
      }
    }
  }
  return std::nullopt;
}

std::optional<std::string> compare_with_batch(const AdmissionSession& session,
                                              const FedconsOptions& opts) {
  std::vector<SessionTaskId> ids;
  const TaskSystem system = session.resident_system(&ids);
  const FedconsResult batch =
      fedcons_schedule(system, session.processors(), opts);
  return compare_verdicts(session.verdict(), batch, ids);
}

EventOutcome apply_event(AdmissionSession& session, const OnlineEvent& e) {
  switch (e.kind) {
    case OnlineEvent::Kind::kAdmit:
      return session.admit(e.admits.at(0));
    case OnlineEvent::Kind::kRelease:
      return session.release(e.release_ids.at(0));
    case OnlineEvent::Kind::kSwap: {
      AdmissionSession::SwapBatch batch;
      batch.release_ids = e.release_ids;
      batch.admits = e.admits;
      return session.swap(batch);
    }
  }
  FEDCONS_EXPECTS_MSG(false, "unreachable event kind");
  return EventOutcome{};
}

DagTask random_task(Rng& rng, const OnlineFuzzConfig& config,
                    std::vector<DagTask>& pool) {
  if (!pool.empty() && rng.uniform01() < config.repeat_fraction) {
    // Re-admit earlier content (possibly still resident — duplicate content
    // is legal, only session ids are unique). This is what drives memo hits.
    const auto pick = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(pool.size()) - 1));
    return pool[pick];
  }
  TaskSetParams params;
  params.num_tasks = 1;
  params.total_utilization = rng.uniform_real(config.util_lo, config.util_hi);
  params.utilization_cap = params.total_utilization + 0.01;
  params.period_min = 50.0;
  params.period_max = 2000.0;
  params.topology = DagTopology::kMixed;
  const TaskSystem system = generate_task_system(rng, params);
  pool.push_back(system[0]);
  return pool.back();
}

OnlineEvent random_event(Rng& rng, const OnlineFuzzConfig& config,
                         const std::vector<SessionTaskId>& alive,
                         std::vector<DagTask>& pool) {
  OnlineEvent e;
  const double r = rng.uniform01();
  if (!alive.empty() && r < 0.15) {
    e.kind = OnlineEvent::Kind::kSwap;
    std::vector<SessionTaskId> shuffled = alive;
    rng.shuffle(shuffled);
    const auto nrel = static_cast<std::size_t>(rng.uniform_int(
        1, static_cast<std::int64_t>(std::min<std::size_t>(3, alive.size()))));
    e.release_ids.assign(shuffled.begin(),
                         shuffled.begin() + static_cast<std::ptrdiff_t>(nrel));
    const std::int64_t nadm = rng.uniform_int(0, 2);
    for (std::int64_t i = 0; i < nadm; ++i) {
      e.admits.push_back(random_task(rng, config, pool));
    }
  } else if (!alive.empty() && r < 0.45) {
    e.kind = OnlineEvent::Kind::kRelease;
    const auto pick = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(alive.size()) - 1));
    e.release_ids.push_back(alive[pick]);
  } else {
    e.kind = OnlineEvent::Kind::kAdmit;
    e.admits.push_back(random_task(rng, config, pool));
  }
  return e;
}

void update_alive(std::vector<SessionTaskId>& alive, const OnlineEvent& e,
                  const EventOutcome& out) {
  if (!out.applied) return;
  for (SessionTaskId id : e.release_ids) {
    alive.erase(std::find(alive.begin(), alive.end(), id));
  }
  alive.insert(alive.end(), out.admitted_ids.begin(), out.admitted_ids.end());
}

/// Session ids an event consumes (admits draw ids even when rejected or
/// rolled back, so the count is static — the key to shrink-time remapping).
std::size_t ids_consumed(const OnlineEvent& e) {
  return e.kind == OnlineEvent::Kind::kRelease ? 0 : e.admits.size();
}

/// Remove event `victim` and shift later release ids down past the id range
/// it consumed. Returns std::nullopt when a later event references one of
/// the removed ids (that candidate cannot be made well-formed).
std::optional<OnlineTrace> remove_event(const OnlineTrace& trace,
                                        std::size_t victim) {
  std::size_t base = 0;
  for (std::size_t i = 0; i < victim; ++i) {
    base += ids_consumed(trace.events[i]);
  }
  const std::size_t k = ids_consumed(trace.events[victim]);
  OnlineTrace out;
  out.processors = trace.processors;
  out.events.reserve(trace.events.size() - 1);
  for (std::size_t i = 0; i < trace.events.size(); ++i) {
    if (i == victim) continue;
    OnlineEvent e = trace.events[i];
    if (k > 0 && i > victim) {
      for (SessionTaskId& id : e.release_ids) {
        if (id >= base && id < base + k) return std::nullopt;
        if (id >= base + k) id -= k;
      }
    }
    out.events.push_back(std::move(e));
  }
  return out;
}

/// True when the candidate still diverges. Candidates whose release ids no
/// longer resolve (admission decisions shifted) are simply not divergent.
bool still_diverges(const OnlineTrace& trace,
                    const AdmissionSession::Config& base) {
  try {
    return check_online_trace(trace, base).has_value();
  } catch (const ContractViolation&) {
    return false;
  }
}

/// Greedy event-removal shrink: keep deleting any event whose removal
/// preserves divergence, until a fixpoint or the probe budget runs out.
OnlineTrace shrink_trace(OnlineTrace trace, const AdmissionSession::Config& base,
                         std::size_t budget, std::size_t& probes) {
  bool progress = true;
  while (progress) {
    progress = false;
    std::size_t i = 0;
    while (i < trace.events.size()) {
      if (probes >= budget) return trace;
      const std::optional<OnlineTrace> candidate = remove_event(trace, i);
      if (!candidate.has_value()) {
        ++i;
        continue;
      }
      ++probes;
      if (still_diverges(*candidate, base)) {
        trace = *candidate;
        progress = true;  // same index now names the next event
      } else {
        ++i;
      }
    }
  }
  return trace;
}

struct TrialResult {
  std::size_t events = 0;
  std::size_t applied = 0;
  std::size_t rejected = 0;
  std::uint64_t memo_hits = 0;
  std::uint64_t memo_misses = 0;
  std::uint64_t bins_revalidated = 0;
  bool diverged = false;
  std::string detail;
  std::string trace_text;  ///< full (unshrunk) trace, set on divergence
};

}  // namespace

std::optional<std::string> check_online_trace(
    const OnlineTrace& trace, const AdmissionSession::Config& base) {
  AdmissionSession::Config cfg = base;
  cfg.processors = trace.processors;
  AdmissionSession session(cfg);
  const FedconsOptions opts = batch_options(session.config());

  std::optional<std::string> first;
  replay_online_trace(trace, session, [&](const OnlineEventReport& report) {
    if (first.has_value()) return;
    if (report.outcome.applied &&
        report.outcome.schedulable != session.verdict().success) {
      first = "event " + std::to_string(report.index) + " (" +
              to_string(report.kind) + "): outcome.schedulable=" +
              std::to_string(report.outcome.schedulable) +
              " disagrees with verdict()";
      return;
    }
    if (auto diff = compare_with_batch(session, opts)) {
      first = "event " + std::to_string(report.index) + " (" +
              to_string(report.kind) + "): " + *diff;
    }
  });
  return first;
}

OnlineFuzzReport run_online_fuzz(const OnlineFuzzConfig& config) {
  FEDCONS_EXPECTS(config.trials >= 1);
  FEDCONS_EXPECTS(config.m >= 1);
  FEDCONS_EXPECTS(config.events_per_trial >= 1);

  AdmissionSession::Config base;
  base.processors = config.m;
  base.memo_capacity = config.memo_capacity;
  const FedconsOptions opts = batch_options(base);

  BatchRunner runner(config.num_threads);
  const auto results = runner.run_trials<TrialResult>(
      config.trials, config.master_seed,
      [&](std::size_t /*trial*/, Rng& rng) {
        TrialResult r;
        AdmissionSession session(base);
        OnlineTrace trace;
        trace.processors = config.m;
        std::vector<SessionTaskId> alive;
        std::vector<DagTask> pool;
        for (std::size_t e = 0; e < config.events_per_trial; ++e) {
          const OnlineEvent event = random_event(rng, config, alive, pool);
          const EventOutcome out = apply_event(session, event);
          trace.events.push_back(event);
          update_alive(alive, event, out);
          ++r.events;
          if (out.applied) {
            ++r.applied;
          } else {
            ++r.rejected;
          }
          r.bins_revalidated += out.bins_revalidated;
          if (auto diff = compare_with_batch(session, opts)) {
            r.diverged = true;
            r.detail = "event " + std::to_string(e) + " (" +
                       to_string(event.kind) + "): " + *diff;
            r.trace_text = write_online_trace(trace);
            break;
          }
        }
        const MinprocsMemoStats stats = session.memo_stats();
        r.memo_hits = stats.hits;
        r.memo_misses = stats.misses;
        return r;
      });

  OnlineFuzzReport report;
  report.trials = results.size();
  for (std::size_t t = 0; t < results.size(); ++t) {
    const TrialResult& r = results[t];
    report.events += r.events;
    report.applied += r.applied;
    report.rejected += r.rejected;
    report.memo_hits += r.memo_hits;
    report.memo_misses += r.memo_misses;
    report.bins_revalidated += r.bins_revalidated;
    if (!r.diverged) continue;

    OnlineDivergence div;
    div.trial = t;
    div.detail = r.detail;
    const OnlineTrace full = parse_online_trace(r.trace_text);
    div.original_events = full.events.size();
    const OnlineTrace minimized =
        shrink_trace(full, base, config.shrink_budget, div.shrink_probes);
    div.minimized_events = minimized.events.size();
    div.trace_text = write_online_trace(minimized);
    try {
      if (auto diff = check_online_trace(minimized, base)) div.detail = *diff;
    } catch (const ContractViolation&) {
      // keep the detail recorded at generation time
    }
    report.divergences.push_back(std::move(div));
  }
  return report;
}

std::string online_fuzz_report_json(const OnlineFuzzReport& r) {
  const std::uint64_t lookups = r.memo_hits + r.memo_misses;
  const double hit_rate =
      lookups == 0 ? 0.0
                   : static_cast<double>(r.memo_hits) /
                         static_cast<double>(lookups);
  std::string out = "{";
  out += "\"trials\": " + std::to_string(r.trials);
  out += ", \"events\": " + std::to_string(r.events);
  out += ", \"applied\": " + std::to_string(r.applied);
  out += ", \"rejected\": " + std::to_string(r.rejected);
  out += ", \"memo_hits\": " + std::to_string(r.memo_hits);
  out += ", \"memo_misses\": " + std::to_string(r.memo_misses);
  out += ", \"memo_hit_rate\": " + format_double(hit_rate);
  out += ", \"bins_revalidated\": " + std::to_string(r.bins_revalidated);
  out += ", \"divergences\": " + std::to_string(r.divergences.size());
  out += "}";
  return out;
}

}  // namespace fedcons
