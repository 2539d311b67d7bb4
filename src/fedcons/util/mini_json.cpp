#include "fedcons/util/mini_json.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <system_error>

namespace fedcons {

// ---- writing ----------------------------------------------------------------

void append_json_escaped(std::string& out, std::string_view s) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::size_t run = 0;  // start of the pending unescaped run
  for (std::size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    const char* escape = nullptr;
    switch (c) {
      case '"': escape = "\\\""; break;
      case '\\': escape = "\\\\"; break;
      case '\n': escape = "\\n"; break;
      case '\t': escape = "\\t"; break;
      case '\r': escape = "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) >= 0x20) continue;
    }
    out.append(s.data() + run, i - run);
    run = i + 1;
    if (escape != nullptr) {
      out += escape;
    } else {
      const char code[] = {'\\', 'u', '0', '0', kHex[(c >> 4) & 0xf],
                           kHex[c & 0xf]};
      out.append(code, sizeof code);
    }
  }
  out.append(s.data() + run, s.size() - run);
}

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 8);
  append_json_escaped(out, s);
  return out;
}

namespace {

template <typename Int>
void append_decimal(std::string& out, Int v) {
  char buf[24];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  out.append(buf, static_cast<std::size_t>(res.ptr - buf));
}

}  // namespace

void append_json_int(std::string& out, std::int64_t v) {
  append_decimal(out, v);
}

void append_json_uint(std::string& out, std::uint64_t v) {
  append_decimal(out, v);
}

std::string format_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

// ---- reading ----------------------------------------------------------------

// Readers, the serve daemon's error responses and the pinned corpora depend
// on which error a malformed document reports and at which line, so the
// scanner makes its checks in a fixed order: an object's members in
// document order, each as key, ':', value, then ',' or '}'. The one level
// of nesting is the `nested_` flag.

bool MiniJsonScanner::next() {
  switch (state_) {
    case State::kDone:
      return false;
    case State::kStart:
      expect('{');
      skip_ws();
      if (peek() == '}') {
        ++pos_;
        return finish();
      }
      state_ = State::kInObject;
      break;
    case State::kInObject:
      if (!next_member_or_close()) return finish();
      break;
  }
  for (;;) {
    skip_ws();
    bool escaped = false;
    if (!nested_) {
      key_buf_.clear();
      key_ = parse_string(key_buf_, escaped);
    } else {
      key_buf_.resize(prefix_len_);
      const std::string_view inner = parse_string(key_buf_, escaped);
      if (!escaped) key_buf_.append(inner);
      key_ = key_buf_;
    }
    skip_ws();
    expect(':');
    skip_ws();
    const char c = peek();
    if (c == '"') {
      value_ = parse_string(value_buf_, escaped);
      return true;
    }
    if (c != '{') {
      value_ = parse_number();
      return true;
    }
    if (nested_) fail("objects nest at most one level");
    // Enter the nested object: its members are keyed "outer.inner".
    if (key_.data() != key_buf_.data()) key_buf_.assign(key_);
    key_buf_ += '.';
    prefix_len_ = key_buf_.size();
    nested_ = true;
    expect('{');
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      nested_ = false;
      if (!next_member_or_close()) return finish();
    }
  }
}

// After a value (or an empty nested object): consume the separator. True
// when positioned at the next member's key; false when the top-level object
// has closed.
bool MiniJsonScanner::next_member_or_close() {
  for (;;) {
    skip_ws();
    if (peek() == ',') {
      ++pos_;
      return true;
    }
    expect('}');
    if (!nested_) return false;
    nested_ = false;
  }
}

bool MiniJsonScanner::finish() {
  skip_ws();
  if (pos_ != text_.size()) fail("trailing content after document");
  state_ = State::kDone;
  key_ = {};
  value_ = {};
  return false;
}

std::string_view MiniJsonScanner::parse_string(std::string& buf,
                                               bool& escaped) {
  expect('"');
  const std::size_t start = pos_;
  while (pos_ < text_.size()) {
    const char c = text_[pos_];
    if (c == '"') {
      ++pos_;
      escaped = false;
      return text_.substr(start, pos_ - 1 - start);
    }
    if (c == '\\') break;
    ++pos_;
  }
  if (pos_ >= text_.size()) fail("unterminated string");
  // Escaped: unescape onto the end of `buf`. An unescaped string is never
  // longer than its source, so a buffer holding the text's length never
  // reallocates, and views into it stay valid.
  if (buf.capacity() < text_.size()) buf.reserve(text_.size());
  const std::size_t out_start = buf.size();
  buf.append(text_.data() + start, pos_ - start);
  unescape_into(buf);
  escaped = true;
  return std::string_view(buf).substr(out_start);
}

void MiniJsonScanner::unescape_into(std::string& buf) {
  for (;;) {
    if (pos_ >= text_.size()) fail("unterminated string");
    char c = text_[pos_++];
    if (c == '"') return;
    if (c != '\\') {
      buf += c;
      continue;
    }
    if (pos_ >= text_.size()) fail("unterminated escape");
    c = text_[pos_++];
    switch (c) {
      case '"': buf += '"'; break;
      case '\\': buf += '\\'; break;
      case '/': buf += '/'; break;
      case 'n': buf += '\n'; break;
      case 't': buf += '\t'; break;
      case 'r': buf += '\r'; break;
      case 'u': {
        if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
        // The four bytes go through strtol, whose leniency (a sign, leading
        // blanks, a "0x" prefix) is part of the accepted dialect.
        char hex[5] = {};
        std::memcpy(hex, text_.data() + pos_, 4);
        pos_ += 4;
        char* end = nullptr;
        const long code = std::strtol(hex, &end, 16);
        if (end != hex + 4 || code > 0x7f) {
          fail("unsupported \\u escape (ASCII only)");
        }
        buf += static_cast<char>(code);
        break;
      }
      default: fail("unknown escape");
    }
  }
}

std::string_view MiniJsonScanner::parse_number() {
  const std::size_t start = pos_;
  while (pos_ < text_.size()) {
    const char c = text_[pos_];
    if (!((c >= '0' && c <= '9') || c == '-' || c == '+' || c == '.' ||
          c == 'e' || c == 'E')) {
      break;
    }
    ++pos_;
  }
  if (pos_ == start) fail("expected a value");
  return text_.substr(start, pos_ - start);
}

void MiniJsonScanner::expect(char c) {
  if (peek() != c) {
    const char message[] = {'e', 'x', 'p', 'e', 'c', 't', 'e', 'd', ' ',
                            '\'', c, '\'', '\0'};
    fail(message);
  }
  ++pos_;
}

void MiniJsonScanner::skip_ws() noexcept {
  while (pos_ < text_.size() &&
         (text_[pos_] == ' ' || text_[pos_] == '\n' || text_[pos_] == '\t' ||
          text_[pos_] == '\r')) {
    ++pos_;
  }
}

void MiniJsonScanner::fail(const char* message) const {
  int line = 1;
  for (std::size_t i = 0; i < pos_ && i < text_.size(); ++i) {
    if (text_[i] == '\n') ++line;
  }
  throw ParseError(line, std::string("artifact JSON: ") + message);
}

std::map<std::string, std::string> parse_mini_json(std::string_view text) {
  std::map<std::string, std::string> out;
  MiniJsonScanner scanner(text);
  while (scanner.next()) {
    out.insert_or_assign(std::string(scanner.key()),
                         std::string(scanner.value()));
  }
  return out;
}

const std::string& require_field(
    const std::map<std::string, std::string>& fields, const std::string& key) {
  const auto it = fields.find(key);
  if (it == fields.end()) throw_missing_field(key);
  return it->second;
}

void throw_missing_field(std::string_view key) {
  throw ParseError(1, "artifact JSON: missing field \"" + std::string(key) +
                          "\"");
}

// Strict numeric conversions. strtoll with a null endptr and unchecked errno
// silently saturates on overflow (INT64_MAX) and yields 0 on garbage — the
// exact bug class PR 5 fixed for fault seeds. Corpus artifacts and the serve
// request decoder both come through here, so every failure must be loud.
// std::from_chars takes neither leading whitespace nor '+', reports the end
// of the digits it matched even on overflow, and never allocates.

namespace {

[[noreturn]] void throw_conversion(const char* what, std::string_view raw) {
  throw ParseError(1, std::string("artifact JSON: ") + what + ": '" +
                          std::string(raw) + "'");
}

template <typename Int>
Int convert_integer(std::string_view raw, const char* not_a) {
  Int value = 0;
  const char* const end = raw.data() + raw.size();
  const auto [ptr, ec] = std::from_chars(raw.data(), end, value);
  if (ptr != end || ec == std::errc::invalid_argument) {
    throw_conversion(not_a, raw);
  }
  if (ec == std::errc::result_out_of_range) {
    throw_conversion("integer out of range", raw);
  }
  return value;
}

}  // namespace

std::int64_t mini_json_int(std::string_view raw) {
  if (raw.empty()) throw ParseError(1, "artifact JSON: empty integer field");
  // JSON integers allow neither leading whitespace nor an explicit '+', so
  // the token must start with a digit or '-'.
  if (!std::isdigit(static_cast<unsigned char>(raw[0])) && raw[0] != '-') {
    throw_conversion("not an integer", raw);
  }
  return convert_integer<std::int64_t>(raw, "not an integer");
}

std::uint64_t mini_json_uint(std::string_view raw) {
  // An unsigned field must be plain digits: no sign at all (strtoull used
  // to wrap "-5" to 2^64-5).
  if (raw.empty() || !std::isdigit(static_cast<unsigned char>(raw[0]))) {
    throw_conversion("not an unsigned integer", raw);
  }
  return convert_integer<std::uint64_t>(raw, "not an unsigned integer");
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

// ---- id lists -----------------------------------------------------------------

void append_ids(std::string& out, const std::vector<std::size_t>& ids) {
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (i != 0) out += ' ';
    append_json_uint(out, ids[i]);
  }
}

std::string join_ids(const std::vector<std::size_t>& ids) {
  std::string out;
  append_ids(out, ids);
  return out;
}

void split_ids(std::string_view raw, std::vector<std::size_t>& out) {
  out.clear();
  const auto is_space = [](char c) {
    return c == ' ' || (c >= '\t' && c <= '\r');
  };
  std::size_t i = 0;
  for (;;) {
    while (i < raw.size() && is_space(raw[i])) ++i;
    if (i == raw.size()) return;
    const std::size_t start = i;
    while (i < raw.size() && !is_space(raw[i])) ++i;
    out.push_back(
        static_cast<std::size_t>(mini_json_uint(raw.substr(start, i - start))));
  }
}

std::vector<std::size_t> split_ids(std::string_view raw) {
  std::vector<std::size_t> out;
  split_ids(raw, out);
  return out;
}

}  // namespace fedcons
