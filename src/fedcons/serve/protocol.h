// Wire protocol of the fedcons_serve admission-control daemon.
//
// Framing is length-prefixed newline-JSON: every message on the socket is
//
//     <decimal-byte-length> '\n' <payload> '\n'
//
// where <payload> is one mini_json document (util/mini_json.h dialect:
// objects nested at most one level, string and number values) of exactly
// <decimal-byte-length> bytes. The prefix makes the stream self-delimiting
// without scanning payloads for separators (embedded task systems contain
// escaped newlines), and the trailing newline keeps captures readable and
// catches length desync immediately. A frame whose length prefix is not a
// plain decimal integer, exceeds the configured cap, or is not followed by
// its exact payload is a *framing* error: the stream cannot be resynced and
// the connection is closed. A well-framed payload that fails request
// parsing (unknown op, missing field, garbage or overflowing integer — all
// enforced by the strict mini_json numeric conversions) is *recoverable*:
// the server answers with an error response and keeps the connection.
//
// Request grammar (all requests carry "op" and a client-chosen "seq" echoed
// verbatim in the response; booleans travel as 0/1 — the dialect has no
// keyword literals):
//
//   {"op": "open",     "seq": N, "m": M}                 -> session handle
//   {"op": "register", "seq": N, "session": S, "system": TEXT}  -> content
//   {"op": "admit",    "seq": N, "session": S, "system": TEXT}
//   {"op": "admit",    "seq": N, "session": S, "content": C}
//   {"op": "release",  "seq": N, "session": S, "id": T}
//   {"op": "swap",     "seq": N, "session": S, "releases": "T T ...",
//                      "system": TEXT | "content": C}
//   {"op": "query",    "seq": N, "session": S}
//   {"op": "stats",    "seq": N [, "format": "prometheus"]}
//   {"op": "ping",     "seq": N}
//   {"op": "stall",    "seq": N, "us": U}      (diagnostic: occupy the
//                                               connection's thread)
//   {"op": "shutdown", "seq": N}               (drain and exit)
//
// Any request may additionally carry "stages": 1 — the response then echoes
// the server-side stage breakdown for that request (see below), so a client
// can attribute its observed latency to waiting vs session handling without
// a server-side trace.
//
// TEXT is an escaped core/io.h task-system document (the same embedding the
// online trace format uses). "register" uploads content once per
// connection and returns a dense handle so steady-state admission traffic
// does not re-send and re-parse identical task text; an admitted system is
// still analyzed in full on every admit, handle or not.
//
// Response grammar:
//
//   {"status": "ok", "seq": N, ...}            op-specific payload below
//   {"status": "error", "seq": N, "error": MSG}
//   {"status": "retry_after", "seq": N}        reserved; the server no longer
//                                              sends it
//
// ok payloads: open -> "session"; register -> "content"; admit/release/swap
// -> "applied" 0/1, "schedulable" 0/1, "reject" (failure name, "accepted"
// when schedulable), "task_ids" ("T T ..." ids assigned to admitted tasks),
// "residents"; query -> "schedulable", "reject", "residents". Backpressure
// is socket flow control: a connection's requests are handled by its own
// server thread in read order, and a client that stops reading stalls only
// that connection.
//
// Stats grammar (both documents carry "schema_version"):
//
//   stats (default)  ->  the ServerStats block spliced into the response:
//       "schema_version", "uptime_us" (us since the daemon started),
//       "snapshot_monotonic_us" (us on the machine-wide monotonic clock at
//       snapshot time — comparable across processes on one box), the
//       counters (connections_accepted, requests_enqueued = requests read
//       and parsed, requests_shed, requests_sampled, parse_errors,
//       framing_errors, batches = socket reads that carried a request,
//       queue_depth, queue_high_watermark, reader_busy_us = frame decode +
//       request parse, handle_us = handle + response encode, write_us =
//       every send(), dispatch_busy_us = the sum of those three; busy times
//       are summed over the connection threads), and one nested
//       obs::histogram_json object per distribution (batch_size = requests
//       per socket read, latency_us = read -> response encoded,
//       admit_latency_us, release_latency_us — each with raw "buckets"
//       counts, so two snapshots can be differenced exactly).
//       requests_shed, queue_depth and queue_high_watermark are always 0:
//       nothing is queued or shed. They keep the schema stable.
//   stats?format=prometheus  ->  {"status": "ok", "seq": N,
//       "schema_version": V, "prometheus": TEXT} where TEXT is the same
//       snapshot rendered in Prometheus text exposition 0.0.4 (JSON-escaped;
//       counters + cumulative le-bucket histograms).
//
// Stage echo ("stages": 1 on the request): the ok response additionally
// carries "stage_queue_us" (the socket read that delivered the request ->
// start of its handling: decode and parse plus the requests ahead of it in
// that read), "stage_batch_us" (always 0; kept for the schema), and
// "stage_handle_us" (session handling) for THAT request. The write stage
// cannot be echoed — a response is encoded before it is written — so write
// attribution lives in the trace/stats side only.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "fedcons/online/admission_session.h"
#include "fedcons/util/parse_error.h"

namespace fedcons {
namespace serve {

/// Frame cap: requests embed at most one small task system; anything bigger
/// is a corrupt length prefix or an abusive client.
constexpr std::size_t kDefaultMaxFrameBytes = std::size_t{1} << 20;

/// Wrap a payload in the length-prefixed frame.
[[nodiscard]] std::string encode_frame(std::string_view payload);

/// Incremental frame decoder: feed raw socket bytes, pull complete payloads.
/// Throws ParseError on framing errors (malformed or oversized length
/// prefix, missing trailing newline) — the stream is unrecoverable then.
class FrameDecoder {
 public:
  explicit FrameDecoder(std::size_t max_frame_bytes = kDefaultMaxFrameBytes)
      : max_frame_bytes_(max_frame_bytes) {}

  void feed(const char* data, std::size_t n) { buf_.append(data, n); }

  /// Extract the next complete payload into `payload`; false when more
  /// bytes are needed.
  bool next(std::string& payload);

  /// Bytes buffered but not yet consumed (a partial trailing frame).
  [[nodiscard]] std::size_t pending_bytes() const noexcept {
    return buf_.size() - pos_;
  }

 private:
  std::size_t max_frame_bytes_;
  std::string buf_;
  std::size_t pos_ = 0;  // consumed prefix, compacted lazily
};

enum class ServeOp {
  kOpen,
  kRegister,
  kAdmit,
  kRelease,
  kSwap,
  kQuery,
  kStats,
  kPing,
  kStall,
  kShutdown,
};

[[nodiscard]] const char* to_string(ServeOp op) noexcept;

struct ServeRequest {
  ServeOp op = ServeOp::kPing;
  std::uint64_t seq = 0;
  std::uint64_t session = 0;  ///< session ops
  int m = 0;                  ///< open
  std::string system;         ///< raw embedded task text (register/admit/swap)
  bool has_content = false;   ///< admit/swap reference registered content
  std::uint64_t content = 0;
  std::vector<SessionTaskId> release_ids;  ///< release (one) / swap (any)
  std::uint64_t stall_us = 0;              ///< stall
  bool prometheus = false;     ///< stats: "format": "prometheus"
  bool echo_stages = false;    ///< any op: "stages": 1 -> stage breakdown
};

/// Payload -> request. Throws ParseError on anything malformed; integers go
/// through the strict mini_json conversions, so trailing garbage and
/// overflow are loud errors, never silent zeros or saturations.
[[nodiscard]] ServeRequest parse_serve_request(const std::string& payload);

/// Request -> payload (inverse of parse_serve_request; fixed field order).
[[nodiscard]] std::string encode_serve_request(const ServeRequest& req);

/// kRetryAfter still parses and encodes, but the server never sends it.
enum class ServeStatus { kOk, kError, kRetryAfter };

[[nodiscard]] const char* to_string(ServeStatus status) noexcept;

struct ServeResponse {
  ServeStatus status = ServeStatus::kOk;
  std::uint64_t seq = 0;
  std::string error;  ///< kError

  bool has_session = false;  ///< open
  std::uint64_t session = 0;
  bool has_content = false;  ///< register
  std::uint64_t content = 0;

  bool has_verdict = false;  ///< admit/release/swap/query
  bool applied = false;
  bool schedulable = false;
  std::string reject;  ///< failure name; "none" when schedulable
  std::vector<SessionTaskId> task_ids;
  std::uint64_t residents = 0;

  bool has_stages = false;  ///< request asked for the stage breakdown
  std::uint64_t stage_queue_us = 0;   ///< socket read -> handling starts
  std::uint64_t stage_batch_us = 0;   ///< always 0 (no batch window)
  std::uint64_t stage_handle_us = 0;  ///< session handling

  /// Extra raw JSON members appended verbatim at encode time (", \"k\": v"
  /// fragments) — the stats payload. Parse keeps the whole payload in `raw`
  /// instead of structuring it; scrape consumers read fields from there.
  std::string extra;
  std::string raw;
};

[[nodiscard]] std::string encode_serve_response(const ServeResponse& resp);

/// Payload -> response (client side). Throws ParseError on malformed input.
/// The verbatim payload is kept in `raw` for stats consumers.
[[nodiscard]] ServeResponse parse_serve_response(const std::string& payload);

/// "1 3 9" <-> ids, the same space-joined embedding the trace format uses.
[[nodiscard]] std::string join_ids(const std::vector<SessionTaskId>& ids);
[[nodiscard]] std::vector<SessionTaskId> split_ids(const std::string& raw);

}  // namespace serve
}  // namespace fedcons
