// The serve wire codec as it stood before util/mini_json's single-pass
// scanner, moved here verbatim as the oracle of serve_wire_fuzz_test: the
// recursive std::map parser, the strtoll-based conversions, the map-based
// request and response parsers and the string-concatenating encoders.
// Only the namespace changed (and the `serve::` qualifiers that needs).
#include "reference/wire_reference.h"

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <sstream>

namespace fedcons::reference {

using serve::ServeOp;
using serve::ServeRequest;
using serve::ServeResponse;
using serve::ServeStatus;
using serve::to_string;

namespace {

/// Recursive-descent parser for the subset the writers emit: objects nested
/// at most one level, string and number values.
class MiniJsonParser {
 public:
  explicit MiniJsonParser(const std::string& text) : text_(text) {}

  std::map<std::string, std::string> parse() {
    std::map<std::string, std::string> out;
    parse_object("", out, /*depth=*/0);
    skip_ws();
    if (pos_ != text_.size()) fail("trailing content after document");
    return out;
  }

 private:
  void parse_object(const std::string& prefix,
                    std::map<std::string, std::string>& out, int depth) {
    expect('{');
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return;
    }
    while (true) {
      skip_ws();
      const std::string key = prefix + parse_string();
      skip_ws();
      expect(':');
      skip_ws();
      const char c = peek();
      if (c == '"') {
        out[key] = parse_string();
      } else if (c == '{') {
        if (depth >= 1) fail("objects nest at most one level");
        parse_object(key + ".", out, depth + 1);
      } else {
        out[key] = parse_number();
      }
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return;
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      c = text_[pos_++];
      switch (c) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'n': out += '\n'; break;
        case 't': out += '\t'; break;
        case 'r': out += '\r'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          const std::string hex = text_.substr(pos_, 4);
          pos_ += 4;
          char* end = nullptr;
          const long code = std::strtol(hex.c_str(), &end, 16);
          if (end != hex.c_str() + 4 || code > 0x7f) {
            fail("unsupported \\u escape (ASCII only)");
          }
          out += static_cast<char>(code);
          break;
        }
        default: fail("unknown escape");
      }
    }
  }

  std::string parse_number() {
    const std::size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '-' || text_[pos_] == '+' || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
    }
    if (pos_ == start) fail("expected a value");
    return text_.substr(start, pos_ - start);
  }

  char peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }
  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }
  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\n' || text_[pos_] == '\t' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }
  [[noreturn]] void fail(const std::string& message) const {
    int line = 1;
    for (std::size_t i = 0; i < pos_ && i < text_.size(); ++i) {
      if (text_[i] == '\n') ++line;
    }
    throw ParseError(line, "artifact JSON: " + message);
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

}  // namespace

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::map<std::string, std::string> parse_mini_json(const std::string& text) {
  return MiniJsonParser(text).parse();
}

const std::string& require_field(
    const std::map<std::string, std::string>& fields, const std::string& key) {
  const auto it = fields.find(key);
  if (it == fields.end()) {
    throw ParseError(1, "artifact JSON: missing field \"" + key + "\"");
  }
  return it->second;
}

std::int64_t mini_json_int(const std::string& raw) {
  if (raw.empty()) throw ParseError(1, "artifact JSON: empty integer field");
  // strtoll skips leading whitespace and accepts an explicit '+'; JSON
  // integers allow neither, so the token must start with a digit or '-'.
  if (!std::isdigit(static_cast<unsigned char>(raw[0])) && raw[0] != '-') {
    throw ParseError(1, "artifact JSON: not an integer: '" + raw + "'");
  }
  errno = 0;
  char* end = nullptr;
  const long long value = std::strtoll(raw.c_str(), &end, 10);
  if (end != raw.c_str() + raw.size() || end == raw.c_str()) {
    throw ParseError(1, "artifact JSON: not an integer: '" + raw + "'");
  }
  if (errno == ERANGE) {
    throw ParseError(1, "artifact JSON: integer out of range: '" + raw + "'");
  }
  return value;
}

std::uint64_t mini_json_uint(const std::string& raw) {
  // strtoull accepts "-5" and wraps it to 2^64-5; an unsigned field must be
  // plain digits.
  if (raw.empty() || !std::isdigit(static_cast<unsigned char>(raw[0]))) {
    throw ParseError(1, "artifact JSON: not an unsigned integer: '" + raw +
                            "'");
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(raw.c_str(), &end, 10);
  if (end != raw.c_str() + raw.size()) {
    throw ParseError(1, "artifact JSON: not an unsigned integer: '" + raw +
                            "'");
  }
  if (errno == ERANGE) {
    throw ParseError(1, "artifact JSON: integer out of range: '" + raw + "'");
  }
  return value;
}

std::string encode_frame(std::string_view payload) {
  std::string out = std::to_string(payload.size());
  out += '\n';
  out += payload;
  out += '\n';
  return out;
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

}  // namespace fedcons::reference
