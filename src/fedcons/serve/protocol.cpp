#include "fedcons/serve/protocol.h"

#include <array>
#include <charconv>

#include "fedcons/util/mini_json.h"

namespace fedcons {
namespace serve {

std::string encode_frame(std::string_view payload) {
  std::string out;
  out.reserve(payload.size() + 22);
  append_json_uint(out, payload.size());
  out += '\n';
  out += payload;
  out += '\n';
  return out;
}

bool FrameDecoder::next(std::string& payload) {
  // Compact once the consumed prefix dominates, so a long-lived connection
  // does not grow its buffer without bound.
  if (pos_ > 4096 && pos_ * 2 > buf_.size()) {
    buf_.erase(0, pos_);
    pos_ = 0;
  }
  const std::size_t nl = buf_.find('\n', pos_);
  if (nl == std::string::npos) {
    // No terminator yet: a length prefix longer than the cap's digit count
    // can never become valid — fail early instead of buffering garbage.
    if (buf_.size() - pos_ > 20) {
      throw ParseError(1, "serve frame: length prefix is not terminated");
    }
    return false;
  }
  const std::string_view len_token =
      std::string_view(buf_).substr(pos_, nl - pos_);
  std::uint64_t len = 0;
  try {
    len = mini_json_uint(len_token);
  } catch (const ParseError&) {
    throw ParseError(1, "serve frame: bad length prefix '" +
                            std::string(len_token) + "'");
  }
  if (len > max_frame_bytes_) {
    throw ParseError(1, "serve frame: length " + std::string(len_token) +
                            " exceeds the " +
                            std::to_string(max_frame_bytes_) + "-byte cap");
  }
  // Frame body: payload plus its trailing newline.
  if (buf_.size() - (nl + 1) < len + 1) return false;
  payload.assign(buf_, nl + 1, len);
  if (buf_[nl + 1 + len] != '\n') {
    throw ParseError(1, "serve frame: payload is not newline-terminated "
                        "(length prefix desync)");
  }
  pos_ = nl + 1 + len + 1;
  return true;
}

const char* to_string(ServeOp op) noexcept {
  switch (op) {
    case ServeOp::kOpen: return "open";
    case ServeOp::kRegister: return "register";
    case ServeOp::kAdmit: return "admit";
    case ServeOp::kRelease: return "release";
    case ServeOp::kSwap: return "swap";
    case ServeOp::kQuery: return "query";
    case ServeOp::kStats: return "stats";
    case ServeOp::kPing: return "ping";
    case ServeOp::kStall: return "stall";
    case ServeOp::kShutdown: return "shutdown";
  }
  return "?";
}

const char* to_string(ServeStatus status) noexcept {
  switch (status) {
    case ServeStatus::kOk: return "ok";
    case ServeStatus::kError: return "error";
    case ServeStatus::kRetryAfter: return "retry_after";
  }
  return "?";
}

void ServeRequest::clear() noexcept {
  op = ServeOp::kPing;
  seq = 0;
  session = 0;
  m = 0;
  system.clear();
  has_content = false;
  content = 0;
  release_ids.clear();
  stall_us = 0;
  prometheus = false;
  echo_stages = false;
}

void ServeResponse::clear() noexcept {
  status = ServeStatus::kOk;
  seq = 0;
  error.clear();
  has_session = false;
  session = 0;
  has_content = false;
  content = 0;
  has_verdict = false;
  applied = false;
  schedulable = false;
  reject.clear();
  task_ids.clear();
  residents = 0;
  has_stages = false;
  stage_queue_us = 0;
  stage_batch_us = 0;
  stage_handle_us = 0;
  extra.clear();
  raw.clear();
}

namespace {

/// The members of one payload that a parser reads, by their index in its key
/// table. One scanner pass fills it; a later duplicate key wins, as in
/// parse_mini_json. Values are views into the payload or into the scanner's
/// buffer (escaped strings), and both outlive this object's use.
template <std::size_t N>
class Members {
 public:
  Members(std::string_view payload,
          const std::array<std::string_view, N>& keys)
      : keys_(keys), scanner_(payload) {
    while (scanner_.next()) {
      const std::string_view key = scanner_.key();
      for (std::size_t i = 0; i < N; ++i) {
        if (key == keys[i]) {
          values_[i] = scanner_.value();
          present_[i] = true;
          break;
        }
      }
    }
  }

  [[nodiscard]] bool has(std::size_t i) const { return present_[i]; }
  [[nodiscard]] std::string_view require(std::size_t i) const {
    if (!present_[i]) throw_missing_field(keys_[i]);
    return values_[i];
  }
  [[nodiscard]] std::uint64_t uint(std::size_t i) const {
    return mini_json_uint(require(i));
  }

 private:
  const std::array<std::string_view, N>& keys_;
  MiniJsonScanner scanner_;
  std::array<std::string_view, N> values_{};
  std::array<bool, N> present_{};
};

enum RequestKey : std::size_t {
  kReqOp,
  kReqSeq,
  kReqM,
  kReqSession,
  kReqSystem,
  kReqContent,
  kReqId,
  kReqReleases,
  kReqUs,
  kReqFormat,
  kReqStages,
  kNumRequestKeys,
};
constexpr std::array<std::string_view, kNumRequestKeys> kRequestKeys = {
    "op", "seq", "m", "session", "system", "content",
    "id", "releases", "us", "format", "stages"};

/// admit/swap carry the payload either inline or by handle, never both.
void parse_system_or_content(const Members<kNumRequestKeys>& f,
                             ServeRequest& req) {
  const bool has_system = f.has(kReqSystem);
  if (has_system == f.has(kReqContent)) {
    throw ParseError(1, std::string("serve request: ") + to_string(req.op) +
                            " needs exactly one of \"system\"/\"content\"");
  }
  if (has_system) {
    req.system.assign(f.require(kReqSystem));
  } else {
    req.has_content = true;
    req.content = f.uint(kReqContent);
  }
}

enum ResponseKey : std::size_t {
  kRespStatus,
  kRespSeq,
  kRespError,
  kRespSession,
  kRespContent,
  kRespApplied,
  kRespSchedulable,
  kRespReject,
  kRespTaskIds,
  kRespResidents,
  kRespStageQueue,
  kRespStageBatch,
  kRespStageHandle,
  kNumResponseKeys,
};
constexpr std::array<std::string_view, kNumResponseKeys> kResponseKeys = {
    "status",    "seq",         "error",          "session",
    "content",   "applied",     "schedulable",    "reject",
    "task_ids",  "residents",   "stage_queue_us", "stage_batch_us",
    "stage_handle_us"};

void append_member(std::string& out, std::string_view name, std::uint64_t v) {
  out += ", \"";
  out += name;
  out += "\": ";
  append_json_uint(out, v);
}

void append_serve_request(std::string& out, const ServeRequest& req) {
  out += "{\"op\": \"";
  out += to_string(req.op);
  out += "\", \"seq\": ";
  append_json_uint(out, req.seq);
  switch (req.op) {
    case ServeOp::kOpen:
      out += ", \"m\": ";
      append_json_int(out, req.m);
      break;
    case ServeOp::kRegister:
      append_member(out, "session", req.session);
      out += ", \"system\": \"";
      append_json_escaped(out, req.system);
      out += '"';
      break;
    case ServeOp::kAdmit:
    case ServeOp::kSwap:
      append_member(out, "session", req.session);
      if (req.op == ServeOp::kSwap) {
        out += ", \"releases\": \"";
        append_ids(out, req.release_ids);
        out += '"';
      }
      if (req.has_content) {
        append_member(out, "content", req.content);
      } else {
        out += ", \"system\": \"";
        append_json_escaped(out, req.system);
        out += '"';
      }
      break;
    case ServeOp::kRelease:
      append_member(out, "session", req.session);
      append_member(out, "id",
                    req.release_ids.empty() ? 0 : req.release_ids[0]);
      break;
    case ServeOp::kQuery:
      append_member(out, "session", req.session);
      break;
    case ServeOp::kStall:
      append_member(out, "us", req.stall_us);
      break;
    case ServeOp::kStats:
      if (req.prometheus) out += ", \"format\": \"prometheus\"";
      break;
    case ServeOp::kPing:
    case ServeOp::kShutdown:
      break;
  }
  if (req.echo_stages) out += ", \"stages\": 1";
  out += '}';
}

void append_serve_response(std::string& out, const ServeResponse& resp) {
  out += "{\"status\": \"";
  out += to_string(resp.status);
  out += "\", \"seq\": ";
  append_json_uint(out, resp.seq);
  if (resp.status == ServeStatus::kError) {
    out += ", \"error\": \"";
    append_json_escaped(out, resp.error);
    out += '"';
  }
  if (resp.has_session) append_member(out, "session", resp.session);
  if (resp.has_content) append_member(out, "content", resp.content);
  if (resp.has_verdict) {
    out += ", \"applied\": ";
    out += resp.applied ? '1' : '0';
    out += ", \"schedulable\": ";
    out += resp.schedulable ? '1' : '0';
    out += ", \"reject\": \"";
    append_json_escaped(out, resp.reject);
    out += "\", \"task_ids\": \"";
    append_ids(out, resp.task_ids);
    out += '"';
    append_member(out, "residents", resp.residents);
  }
  if (resp.has_stages) {
    // "stage_" prefix: a stats response already owns the bare handle_us key
    // (the cumulative busy counter), and one payload must never carry two
    // meanings for one name.
    append_member(out, "stage_queue_us", resp.stage_queue_us);
    append_member(out, "stage_batch_us", resp.stage_batch_us);
    append_member(out, "stage_handle_us", resp.stage_handle_us);
  }
  out += resp.extra;
  out += '}';
}

}  // namespace

void parse_serve_request(std::string_view payload, ServeRequest& req) {
  req.clear();
  const Members<kNumRequestKeys> f(payload, kRequestKeys);
  const std::string_view op = f.require(kReqOp);
  req.seq = f.uint(kReqSeq);
  if (op == "open") {
    req.op = ServeOp::kOpen;
    const std::int64_t m = mini_json_int(f.require(kReqM));
    if (m < 1 || m > 1 << 20) {
      throw ParseError(1, "serve request: open needs 1 <= m <= 2^20");
    }
    req.m = static_cast<int>(m);
  } else if (op == "register") {
    req.op = ServeOp::kRegister;
    req.session = f.uint(kReqSession);
    req.system.assign(f.require(kReqSystem));
  } else if (op == "admit") {
    req.op = ServeOp::kAdmit;
    req.session = f.uint(kReqSession);
    parse_system_or_content(f, req);
  } else if (op == "release") {
    req.op = ServeOp::kRelease;
    req.session = f.uint(kReqSession);
    req.release_ids.push_back(static_cast<SessionTaskId>(f.uint(kReqId)));
  } else if (op == "swap") {
    req.op = ServeOp::kSwap;
    req.session = f.uint(kReqSession);
    split_ids(f.require(kReqReleases), req.release_ids);
    parse_system_or_content(f, req);
  } else if (op == "query") {
    req.op = ServeOp::kQuery;
    req.session = f.uint(kReqSession);
  } else if (op == "stats") {
    req.op = ServeOp::kStats;
    if (f.has(kReqFormat)) {
      const std::string_view format = f.require(kReqFormat);
      if (format != "prometheus") {
        throw ParseError(1, "serve request: unknown stats format '" +
                                std::string(format) + "'");
      }
      req.prometheus = true;
    }
  } else if (op == "ping") {
    req.op = ServeOp::kPing;
  } else if (op == "stall") {
    req.op = ServeOp::kStall;
    req.stall_us = f.uint(kReqUs);
  } else if (op == "shutdown") {
    req.op = ServeOp::kShutdown;
  } else {
    throw ParseError(1, "serve request: unknown op '" + std::string(op) + "'");
  }
  if (f.has(kReqStages)) req.echo_stages = f.uint(kReqStages) != 0;
}

ServeRequest parse_serve_request(const std::string& payload) {
  ServeRequest req;
  parse_serve_request(payload, req);
  return req;
}

std::string encode_serve_request(const ServeRequest& req) {
  std::string out;
  // Fixed members plus the escaped system text (task text is mostly plain
  // characters and newlines, which escape to two bytes) and the id list.
  out.reserve(192 + 2 * req.system.size() + 21 * req.release_ids.size());
  append_serve_request(out, req);
  return out;
}

std::string encode_serve_response(const ServeResponse& resp) {
  std::string out;
  out.reserve(256 + 2 * (resp.error.size() + resp.reject.size()) +
              21 * resp.task_ids.size() + resp.extra.size());
  append_serve_response(out, resp);
  return out;
}

void append_serve_response_frame(std::string& out, const ServeResponse& resp) {
  // The length prefix precedes a payload whose length is known only once it
  // is encoded: encode in place, then insert the prefix in front of it.
  const std::size_t start = out.size();
  append_serve_response(out, resp);
  char prefix[24];
  const auto res =
      std::to_chars(prefix, prefix + sizeof prefix - 1, out.size() - start);
  *res.ptr = '\n';
  out.insert(start, prefix, static_cast<std::size_t>(res.ptr + 1 - prefix));
  out += '\n';
}

void parse_serve_response(std::string_view payload, ServeResponse& resp) {
  resp.clear();
  const Members<kNumResponseKeys> f(payload, kResponseKeys);
  resp.raw.assign(payload);
  const std::string_view status = f.require(kRespStatus);
  if (status == "ok") {
    resp.status = ServeStatus::kOk;
  } else if (status == "error") {
    resp.status = ServeStatus::kError;
    resp.error.assign(f.require(kRespError));
  } else if (status == "retry_after") {
    resp.status = ServeStatus::kRetryAfter;
  } else {
    throw ParseError(1, "serve response: unknown status '" +
                            std::string(status) + "'");
  }
  resp.seq = f.uint(kRespSeq);
  if (f.has(kRespSession)) {
    resp.has_session = true;
    resp.session = f.uint(kRespSession);
  }
  if (f.has(kRespContent)) {
    resp.has_content = true;
    resp.content = f.uint(kRespContent);
  }
  if (f.has(kRespApplied)) {
    resp.has_verdict = true;
    resp.applied = f.uint(kRespApplied) != 0;
    resp.schedulable = f.uint(kRespSchedulable) != 0;
    resp.reject.assign(f.require(kRespReject));
    split_ids(f.require(kRespTaskIds), resp.task_ids);
    resp.residents = f.uint(kRespResidents);
  }
  if (f.has(kRespStageQueue)) {
    resp.has_stages = true;
    resp.stage_queue_us = f.uint(kRespStageQueue);
    resp.stage_batch_us = f.uint(kRespStageBatch);
    resp.stage_handle_us = f.uint(kRespStageHandle);
  }
}

ServeResponse parse_serve_response(const std::string& payload) {
  ServeResponse resp;
  parse_serve_response(payload, resp);
  return resp;
}

}  // namespace serve
}  // namespace fedcons
