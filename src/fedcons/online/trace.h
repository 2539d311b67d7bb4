// OnlineReplay — a line-oriented trace format for admission-event sequences,
// plus the driver that feeds a trace through an AdmissionSession.
//
// A trace is JSON-lines in the mini_json dialect (util/mini_json.h): one
// flat object per line, byte-deterministic when written by us. Task payloads
// are embedded as the core/io.h textual task-system format (escaped), so a
// trace is self-contained and diffable:
//
//   {"format": "fedcons-online-trace", "version": 1, "processors": 8}
//   {"event": "admit", "system": "task a\n  deadline 10\n..."}
//   {"event": "release", "id": 0}
//   {"event": "swap", "releases": "1 3", "system": "..."}
//
// Session ids referenced by release/swap lines are the deterministic
// sequential ids AdmissionSession assigns in admit order (rejected admits and
// rolled-back swap admits consume ids too), so a trace replays identically
// everywhere. The same format backs the `fedcons_cli --online=FILE` driver
// and the `fedcons_conform --online` fuzzer's pinned repro artifacts.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "fedcons/online/admission_session.h"

namespace fedcons {

/// One trace event. kAdmit uses admits[0]; kSwap uses both lists.
struct OnlineEvent {
  enum class Kind { kAdmit, kRelease, kSwap };
  Kind kind = Kind::kAdmit;
  std::vector<DagTask> admits;
  std::vector<SessionTaskId> release_ids;
};

[[nodiscard]] const char* to_string(OnlineEvent::Kind k) noexcept;

struct OnlineTrace {
  int processors = 1;
  std::vector<OnlineEvent> events;
};

/// Serialize (byte-deterministic for given inputs).
[[nodiscard]] std::string write_online_trace(const OnlineTrace& trace);

/// Parse; throws ParseError on malformed input (bad header, unknown event,
/// malformed embedded task systems).
[[nodiscard]] OnlineTrace parse_online_trace(const std::string& text);

/// Per-event replay record.
struct OnlineEventReport {
  std::size_t index = 0;
  OnlineEvent::Kind kind = OnlineEvent::Kind::kAdmit;
  EventOutcome outcome;
  std::uint64_t latency_us = 0;  ///< wall-clock time of the session call
  std::size_t residents_after = 0;
};

/// Replay summary.
struct OnlineReplayResult {
  std::size_t events = 0;
  std::size_t applied = 0;
  std::size_t rejected = 0;  ///< admission-controlled rejections + failed swaps
  std::uint64_t total_latency_us = 0;
  std::uint64_t max_latency_us = 0;
  std::uint64_t bins_revalidated = 0;
  bool final_schedulable = true;
};

/// Feed every event of `trace` through `session` (which must have been built
/// with trace.processors), timing each call; `on_event`, when set, observes
/// each report as it happens.
OnlineReplayResult replay_online_trace(
    const OnlineTrace& trace, AdmissionSession& session,
    const std::function<void(const OnlineEventReport&)>& on_event = {});

}  // namespace fedcons
