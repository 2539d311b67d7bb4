// Minimal JSON helpers shared by the pinned-artifact reader/writer
// (conform/artifact.h), the online trace format (online/trace.h), the serve
// wire protocol (serve/protocol.h) and the JSON reports.
//
// The dialect is deliberately tiny: objects nested at most one level, string
// and number values, no arrays. Writers emit exactly this subset with a fixed
// field order (byte-deterministic for given inputs); the reader accepts
// exactly this subset and raises ParseError on anything else. Anything richer
// belongs in a real serialization layer, not a repro pin.
//
// One reader: MiniJsonScanner walks a document in a single pass and yields
// each member as a (key, value) view. parse_mini_json is a loop over it that
// fills a map, for the cold readers (artifacts, traces, stats scrapes); the
// serve codec reads the scanner directly, so a request or response without
// escapes or nesting is parsed without touching the heap.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "fedcons/util/parse_error.h"

namespace fedcons {

/// Append `s` to `out` escaped for a JSON string (ASCII control characters
/// become \u escapes; the reader round-trips the result).
void append_json_escaped(std::string& out, std::string_view s);

/// Escape a string for embedding in a JSON document (append_json_escaped
/// into a fresh string).
[[nodiscard]] std::string json_escape(std::string_view s);

/// Append the decimal form of an integer (std::to_chars; the same bytes as
/// std::to_string).
void append_json_int(std::string& out, std::int64_t v);
void append_json_uint(std::string& out, std::uint64_t v);

/// Shortest round-trip decimal form ("%.17g") — artifacts must replay with
/// the exact double the finder used.
[[nodiscard]] std::string format_double(double v);

/// Single-pass pull reader over one document of the dialect. Each next()
/// yields one member in document order: a nested object's members come out
/// as "outer.inner" keys (an empty nested object yields nothing), and a
/// duplicate key is yielded again, so a reader that keeps the last value
/// gets parse_mini_json's "later wins". next() returns false once the
/// closing brace and any trailing whitespace are consumed, and throws
/// ParseError (with an approximate line number) on the first grammar error.
///
/// Views: a string without escapes, a number and a top-level key point into
/// the text. An escaped string is unescaped into the scanner's value buffer,
/// which is sized to the text on the first escape and only appended to, so
/// every value view stays valid until the scanner is destroyed. A nested key
/// is built in the scanner's key buffer, so key() is valid only until the
/// next call to next().
class MiniJsonScanner {
 public:
  explicit MiniJsonScanner(std::string_view text) noexcept : text_(text) {}

  [[nodiscard]] bool next();
  [[nodiscard]] std::string_view key() const noexcept { return key_; }
  [[nodiscard]] std::string_view value() const noexcept { return value_; }

 private:
  enum class State { kStart, kInObject, kDone };

  [[nodiscard]] bool next_member_or_close();
  bool finish();
  [[nodiscard]] std::string_view parse_string(std::string& buf,
                                              bool& escaped);
  [[nodiscard]] std::string_view parse_number();
  void unescape_into(std::string& buf);
  [[nodiscard]] char peek() const noexcept {
    return pos_ < text_.size() ? text_[pos_] : '\0';
  }
  void expect(char c);
  void skip_ws() noexcept;
  [[noreturn]] void fail(const char* message) const;

  std::string_view text_;
  std::size_t pos_ = 0;
  State state_ = State::kStart;
  bool nested_ = false;         ///< inside a nested object
  std::size_t prefix_len_ = 0;  ///< "outer." at the front of key_buf_
  std::string_view key_;
  std::string_view value_;
  std::string key_buf_;
  std::string value_buf_;
};

/// Parse a document of the dialect into a flat "outer.inner" -> raw-value
/// map (strings unescaped, numbers verbatim; a later duplicate key wins).
/// Throws ParseError with an approximate line number on malformed input.
[[nodiscard]] std::map<std::string, std::string> parse_mini_json(
    std::string_view text);

/// Fetch a required field from a parse_mini_json map; throws ParseError
/// naming the field when absent.
[[nodiscard]] const std::string& require_field(
    const std::map<std::string, std::string>& fields, const std::string& key);

/// The ParseError require_field raises, for readers that keep their own
/// fields.
[[noreturn]] void throw_missing_field(std::string_view key);

/// Strict raw-value conversions for parse_mini_json results: the whole token
/// must convert and the value must fit, otherwise ParseError. mini_json_uint
/// additionally rejects signs, and neither takes leading whitespace or '+'.
/// Artifacts are written by us, but they are replayed from disk and the
/// serve protocol decodes network input through the same helpers, so
/// garbage must fail loudly instead of becoming 0 and overflow must not
/// saturate silently.
[[nodiscard]] std::int64_t mini_json_int(std::string_view raw);
[[nodiscard]] std::uint64_t mini_json_uint(std::string_view raw);
/// The same contract for a finite JSON number: strtod alone also takes
/// "inf", "nan", hex floats and leading blanks, and overflows to ±inf.
[[nodiscard]] double mini_json_double(const std::string& raw);

/// "1 3 9" <-> ids: the dialect has no arrays, so an id list travels as one
/// string of space-joined unsigned integers (online traces, serve
/// "releases" and "task_ids"). split_ids splits on the whitespace set of
/// std::isspace in the C locale and converts each token with mini_json_uint.
void append_ids(std::string& out, const std::vector<std::size_t>& ids);
[[nodiscard]] std::string join_ids(const std::vector<std::size_t>& ids);
void split_ids(std::string_view raw, std::vector<std::size_t>& out);
[[nodiscard]] std::vector<std::size_t> split_ids(std::string_view raw);

}  // namespace fedcons
