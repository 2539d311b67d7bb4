// Minimal JSON helpers shared by the pinned-artifact reader/writer
// (conform/artifact.h), the online trace format (online/trace.h) and the
// JSON reports.
//
// The dialect is deliberately tiny: objects nested at most one level, string
// and number values, no arrays. Writers emit exactly this subset with a fixed
// field order (byte-deterministic for given inputs); the parser accepts
// exactly this subset and raises ParseError on anything else. Anything richer
// belongs in a real serialization layer, not a repro pin.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "fedcons/util/parse_error.h"

namespace fedcons {

/// Escape a string for embedding in a JSON document (ASCII control characters
/// become \u escapes; the parser below round-trips the result).
[[nodiscard]] std::string json_escape(const std::string& s);

/// Shortest round-trip decimal form ("%.17g") — artifacts must replay with
/// the exact double the finder used.
[[nodiscard]] std::string format_double(double v);

/// Parse a document of the dialect into a flat "outer.inner" -> raw-value
/// map (strings unescaped, numbers verbatim). Throws ParseError with an
/// approximate line number on malformed input.
[[nodiscard]] std::map<std::string, std::string> parse_mini_json(
    const std::string& text);

/// Fetch a required field from a parse_mini_json map; throws ParseError
/// naming the field when absent.
[[nodiscard]] const std::string& require_field(
    const std::map<std::string, std::string>& fields, const std::string& key);

/// Strict raw-value conversions for parse_mini_json results: the whole token
/// must convert (endptr reaches the end) and the value must fit (errno is
/// checked), otherwise ParseError. mini_json_uint additionally rejects signs
/// — strtoull would happily wrap "-5" to 2^64-5. Artifacts are written by
/// us, but they are replayed from disk and the serve protocol decodes
/// network input through the same helpers, so garbage must fail loudly
/// instead of becoming 0 and overflow must not saturate silently.
[[nodiscard]] std::int64_t mini_json_int(const std::string& raw);
[[nodiscard]] std::uint64_t mini_json_uint(const std::string& raw);
/// The same contract for a finite JSON number: strtod alone also takes
/// "inf", "nan", hex floats and leading blanks, and overflows to ±inf.
[[nodiscard]] double mini_json_double(const std::string& raw);

}  // namespace fedcons
