#include "fedcons/online/trace.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <sstream>

#include "fedcons/core/io.h"
#include "fedcons/util/check.h"
#include "fedcons/util/mini_json.h"

namespace fedcons {

const char* to_string(OnlineEvent::Kind k) noexcept {
  switch (k) {
    case OnlineEvent::Kind::kAdmit: return "admit";
    case OnlineEvent::Kind::kRelease: return "release";
    case OnlineEvent::Kind::kSwap: return "swap";
  }
  return "?";
}

namespace {

std::string serialize_tasks(const std::vector<DagTask>& tasks) {
  return serialize_task_system(TaskSystem(tasks));
}

std::vector<DagTask> parse_tasks(const std::string& text, int line) {
  const ParseResult parsed = try_parse_task_system(text);
  if (!parsed.ok) {
    throw ParseError(line, "online trace: embedded system: " + parsed.error);
  }
  std::vector<DagTask> out;
  out.reserve(parsed.system.size());
  for (const DagTask& t : parsed.system) out.push_back(t);
  return out;
}

// mini_json_uint is strict (digits only, full token, range-checked) so a
// mistyped id is a parse error, not id 0; rewrap to carry the trace line.
SessionTaskId parse_id(const std::string& token, int line) {
  try {
    return static_cast<SessionTaskId>(mini_json_uint(token));
  } catch (const ParseError&) {
    throw ParseError(line, "online trace: bad id '" + token + "'");
  }
}

std::vector<SessionTaskId> parse_id_list(const std::string& raw, int line) {
  try {
    return split_ids(raw);
  } catch (const ParseError&) {
    throw ParseError(line, "online trace: bad id list '" + raw + "'");
  }
}

}  // namespace

std::string write_online_trace(const OnlineTrace& trace) {
  std::string out = "{\"format\": \"fedcons-online-trace\", \"version\": 1, "
                    "\"processors\": " +
                    std::to_string(trace.processors) + "}\n";
  for (const OnlineEvent& e : trace.events) {
    switch (e.kind) {
      case OnlineEvent::Kind::kAdmit:
        FEDCONS_EXPECTS(e.admits.size() == 1 && e.release_ids.empty());
        out += "{\"event\": \"admit\", \"system\": \"" +
               json_escape(serialize_tasks(e.admits)) + "\"}\n";
        break;
      case OnlineEvent::Kind::kRelease:
        FEDCONS_EXPECTS(e.admits.empty() && e.release_ids.size() == 1);
        out += "{\"event\": \"release\", \"id\": " +
               std::to_string(e.release_ids[0]) + "}\n";
        break;
      case OnlineEvent::Kind::kSwap:
        out += "{\"event\": \"swap\", \"releases\": \"" +
               json_escape(join_ids(e.release_ids)) + "\", \"system\": \"" +
               json_escape(serialize_tasks(e.admits)) + "\"}\n";
        break;
    }
  }
  return out;
}

OnlineTrace parse_online_trace(const std::string& text) {
  OnlineTrace trace;
  std::istringstream in(text);
  std::string line;
  int lineno = 0;
  bool saw_header = false;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    const auto fields = parse_mini_json(line);
    if (!saw_header) {
      if (require_field(fields, "format") != "fedcons-online-trace") {
        throw ParseError(lineno, "online trace: unrecognized format");
      }
      if (mini_json_int(require_field(fields, "version")) != 1) {
        throw ParseError(lineno, "online trace: unsupported version");
      }
      const std::int64_t m = mini_json_int(require_field(fields, "processors"));
      if (m < 1 || m > std::numeric_limits<int>::max()) {
        throw ParseError(lineno,
                         "online trace: processors outside [1, INT_MAX]");
      }
      trace.processors = static_cast<int>(m);
      saw_header = true;
      continue;
    }
    const std::string& kind = require_field(fields, "event");
    OnlineEvent event;
    if (kind == "admit") {
      event.kind = OnlineEvent::Kind::kAdmit;
      event.admits = parse_tasks(require_field(fields, "system"), lineno);
      if (event.admits.size() != 1) {
        throw ParseError(lineno, "online trace: admit needs exactly one task");
      }
    } else if (kind == "release") {
      event.kind = OnlineEvent::Kind::kRelease;
      event.release_ids.push_back(
          parse_id(require_field(fields, "id"), lineno));
    } else if (kind == "swap") {
      event.kind = OnlineEvent::Kind::kSwap;
      event.release_ids =
          parse_id_list(require_field(fields, "releases"), lineno);
      event.admits = parse_tasks(require_field(fields, "system"), lineno);
    } else {
      throw ParseError(lineno, "online trace: unknown event '" + kind + "'");
    }
    trace.events.push_back(std::move(event));
  }
  if (!saw_header) throw ParseError(1, "online trace: missing header line");
  return trace;
}

OnlineReplayResult replay_online_trace(
    const OnlineTrace& trace, AdmissionSession& session,
    const std::function<void(const OnlineEventReport&)>& on_event) {
  using Clock = std::chrono::steady_clock;
  OnlineReplayResult result;
  for (std::size_t i = 0; i < trace.events.size(); ++i) {
    const OnlineEvent& e = trace.events[i];
    OnlineEventReport report;
    report.index = i;
    report.kind = e.kind;
    const auto start = Clock::now();
    switch (e.kind) {
      case OnlineEvent::Kind::kAdmit:
        report.outcome = session.admit(e.admits[0]);
        break;
      case OnlineEvent::Kind::kRelease:
        report.outcome = session.release(e.release_ids[0]);
        break;
      case OnlineEvent::Kind::kSwap: {
        AdmissionSession::SwapBatch batch;
        batch.release_ids = e.release_ids;
        for (const DagTask& t : e.admits) {
          batch.admits.push_back(std::make_shared<const DagTask>(t));
        }
        report.outcome = session.swap(batch);
        break;
      }
    }
    report.latency_us = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                              start)
            .count());
    report.residents_after = session.num_residents();

    ++result.events;
    if (report.outcome.applied) {
      ++result.applied;
    } else {
      ++result.rejected;
    }
    result.total_latency_us += report.latency_us;
    result.max_latency_us = std::max(result.max_latency_us, report.latency_us);
    result.bins_revalidated += report.outcome.bins_revalidated;
    result.final_schedulable = report.outcome.schedulable;
    if (on_event) on_event(report);
  }
  return result;
}

}  // namespace fedcons
