#include "fedcons/util/mini_json.h"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace fedcons {

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

std::string format_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
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

// Strict numeric conversions. strtoll with a null endptr and unchecked errno
// silently saturates on overflow (INT64_MAX) and yields 0 on garbage — the
// exact bug class PR 5 fixed for fault seeds. Corpus artifacts and the serve
// request decoder both come through here, so every failure must be loud.

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

double mini_json_double(const std::string& raw) {
  const bool json_number =
      !raw.empty() &&
      (std::isdigit(static_cast<unsigned char>(raw[0])) || raw[0] == '-') &&
      raw.find_first_not_of("0123456789+-.eE") == std::string::npos;
  char* end = nullptr;
  const double value = json_number ? std::strtod(raw.c_str(), &end) : 0.0;
  if (!json_number || end != raw.c_str() + raw.size()) {
    throw ParseError(1, "artifact JSON: not a number: '" + raw + "'");
  }
  if (!std::isfinite(value)) {
    throw ParseError(1, "artifact JSON: number out of range: '" + raw + "'");
  }
  return value;
}

}  // namespace fedcons
