#include "fedcons/serve/protocol.h"

#include <cstring>
#include <sstream>

#include "fedcons/util/mini_json.h"

namespace fedcons {
namespace serve {

std::string encode_frame(std::string_view payload) {
  std::string out = std::to_string(payload.size());
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
  const std::string len_token = buf_.substr(pos_, nl - pos_);
  std::uint64_t len = 0;
  try {
    len = mini_json_uint(len_token);
  } catch (const ParseError&) {
    throw ParseError(1, "serve frame: bad length prefix '" + len_token + "'");
  }
  if (len > max_frame_bytes_) {
    throw ParseError(1, "serve frame: length " + len_token +
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

std::string join_ids(const std::vector<SessionTaskId>& ids) {
  std::string out;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (i != 0) out += ' ';
    out += std::to_string(ids[i]);
  }
  return out;
}

std::vector<SessionTaskId> split_ids(const std::string& raw) {
  std::vector<SessionTaskId> out;
  std::istringstream in(raw);
  std::string token;
  while (in >> token) {
    out.push_back(static_cast<SessionTaskId>(mini_json_uint(token)));
  }
  return out;
}

namespace {

using Fields = std::map<std::string, std::string>;

std::uint64_t uint_field(const Fields& fields, const std::string& key) {
  return mini_json_uint(require_field(fields, key));
}

bool has_field(const Fields& fields, const std::string& key) {
  return fields.count(key) != 0;
}

/// admit/swap carry the payload either inline or by handle, never both.
void parse_system_or_content(const Fields& fields, ServeRequest& req) {
  const bool has_system = has_field(fields, "system");
  const bool has_content = has_field(fields, "content");
  if (has_system == has_content) {
    throw ParseError(1, std::string("serve request: ") + to_string(req.op) +
                            " needs exactly one of \"system\"/\"content\"");
  }
  if (has_system) {
    req.system = fields.at("system");
  } else {
    req.has_content = true;
    req.content = uint_field(fields, "content");
  }
}

}  // namespace

ServeRequest parse_serve_request(const std::string& payload) {
  const Fields fields = parse_mini_json(payload);
  ServeRequest req;
  const std::string& op = require_field(fields, "op");
  req.seq = uint_field(fields, "seq");
  if (op == "open") {
    req.op = ServeOp::kOpen;
    const std::int64_t m = mini_json_int(require_field(fields, "m"));
    if (m < 1 || m > 1 << 20) {
      throw ParseError(1, "serve request: open needs 1 <= m <= 2^20");
    }
    req.m = static_cast<int>(m);
  } else if (op == "register") {
    req.op = ServeOp::kRegister;
    req.session = uint_field(fields, "session");
    req.system = require_field(fields, "system");
  } else if (op == "admit") {
    req.op = ServeOp::kAdmit;
    req.session = uint_field(fields, "session");
    parse_system_or_content(fields, req);
  } else if (op == "release") {
    req.op = ServeOp::kRelease;
    req.session = uint_field(fields, "session");
    req.release_ids.push_back(
        static_cast<SessionTaskId>(uint_field(fields, "id")));
  } else if (op == "swap") {
    req.op = ServeOp::kSwap;
    req.session = uint_field(fields, "session");
    req.release_ids = split_ids(require_field(fields, "releases"));
    parse_system_or_content(fields, req);
  } else if (op == "query") {
    req.op = ServeOp::kQuery;
    req.session = uint_field(fields, "session");
  } else if (op == "stats") {
    req.op = ServeOp::kStats;
    if (has_field(fields, "format")) {
      const std::string& format = fields.at("format");
      if (format != "prometheus") {
        throw ParseError(1, "serve request: unknown stats format '" +
                                format + "'");
      }
      req.prometheus = true;
    }
  } else if (op == "ping") {
    req.op = ServeOp::kPing;
  } else if (op == "stall") {
    req.op = ServeOp::kStall;
    req.stall_us = uint_field(fields, "us");
  } else if (op == "shutdown") {
    req.op = ServeOp::kShutdown;
  } else {
    throw ParseError(1, "serve request: unknown op '" + op + "'");
  }
  if (has_field(fields, "stages")) {
    req.echo_stages = uint_field(fields, "stages") != 0;
  }
  return req;
}

std::string encode_serve_request(const ServeRequest& req) {
  std::string out = "{\"op\": \"";
  out += to_string(req.op);
  out += "\", \"seq\": " + std::to_string(req.seq);
  switch (req.op) {
    case ServeOp::kOpen:
      out += ", \"m\": " + std::to_string(req.m);
      break;
    case ServeOp::kRegister:
      out += ", \"session\": " + std::to_string(req.session);
      out += ", \"system\": \"" + json_escape(req.system) + "\"";
      break;
    case ServeOp::kAdmit:
    case ServeOp::kSwap:
      out += ", \"session\": " + std::to_string(req.session);
      if (req.op == ServeOp::kSwap) {
        out += ", \"releases\": \"" + join_ids(req.release_ids) + "\"";
      }
      if (req.has_content) {
        out += ", \"content\": " + std::to_string(req.content);
      } else {
        out += ", \"system\": \"" + json_escape(req.system) + "\"";
      }
      break;
    case ServeOp::kRelease:
      out += ", \"session\": " + std::to_string(req.session);
      out += ", \"id\": " + std::to_string(req.release_ids.empty()
                                               ? 0
                                               : req.release_ids[0]);
      break;
    case ServeOp::kQuery:
      out += ", \"session\": " + std::to_string(req.session);
      break;
    case ServeOp::kStall:
      out += ", \"us\": " + std::to_string(req.stall_us);
      break;
    case ServeOp::kStats:
      if (req.prometheus) out += ", \"format\": \"prometheus\"";
      break;
    case ServeOp::kPing:
    case ServeOp::kShutdown:
      break;
  }
  if (req.echo_stages) out += ", \"stages\": 1";
  out += "}";
  return out;
}

std::string encode_serve_response(const ServeResponse& resp) {
  std::string out = "{\"status\": \"";
  out += to_string(resp.status);
  out += "\", \"seq\": " + std::to_string(resp.seq);
  if (resp.status == ServeStatus::kError) {
    out += ", \"error\": \"" + json_escape(resp.error) + "\"";
  }
  if (resp.has_session) {
    out += ", \"session\": " + std::to_string(resp.session);
  }
  if (resp.has_content) {
    out += ", \"content\": " + std::to_string(resp.content);
  }
  if (resp.has_verdict) {
    out += ", \"applied\": ";
    out += resp.applied ? '1' : '0';
    out += ", \"schedulable\": ";
    out += resp.schedulable ? '1' : '0';
    out += ", \"reject\": \"" + json_escape(resp.reject) + "\"";
    out += ", \"task_ids\": \"" + join_ids(resp.task_ids) + "\"";
    out += ", \"residents\": " + std::to_string(resp.residents);
  }
  if (resp.has_stages) {
    // "stage_" prefix: a stats response already owns the bare handle_us key
    // (the cumulative busy counter), and one payload must never carry two
    // meanings for one name.
    out += ", \"stage_queue_us\": " + std::to_string(resp.stage_queue_us);
    out += ", \"stage_batch_us\": " + std::to_string(resp.stage_batch_us);
    out += ", \"stage_handle_us\": " + std::to_string(resp.stage_handle_us);
  }
  out += resp.extra;
  out += "}";
  return out;
}

ServeResponse parse_serve_response(const std::string& payload) {
  const Fields fields = parse_mini_json(payload);
  ServeResponse resp;
  resp.raw = payload;
  const std::string& status = require_field(fields, "status");
  if (status == "ok") {
    resp.status = ServeStatus::kOk;
  } else if (status == "error") {
    resp.status = ServeStatus::kError;
    resp.error = require_field(fields, "error");
  } else if (status == "retry_after") {
    resp.status = ServeStatus::kRetryAfter;
  } else {
    throw ParseError(1, "serve response: unknown status '" + status + "'");
  }
  resp.seq = uint_field(fields, "seq");
  if (has_field(fields, "session")) {
    resp.has_session = true;
    resp.session = uint_field(fields, "session");
  }
  if (has_field(fields, "content")) {
    resp.has_content = true;
    resp.content = uint_field(fields, "content");
  }
  if (has_field(fields, "applied")) {
    resp.has_verdict = true;
    resp.applied = uint_field(fields, "applied") != 0;
    resp.schedulable = uint_field(fields, "schedulable") != 0;
    resp.reject = require_field(fields, "reject");
    resp.task_ids = split_ids(require_field(fields, "task_ids"));
    resp.residents = uint_field(fields, "residents");
  }
  if (has_field(fields, "stage_queue_us")) {
    resp.has_stages = true;
    resp.stage_queue_us = uint_field(fields, "stage_queue_us");
    resp.stage_batch_us = uint_field(fields, "stage_batch_us");
    resp.stage_handle_us = uint_field(fields, "stage_handle_us");
  }
  return resp;
}

}  // namespace serve
}  // namespace fedcons
