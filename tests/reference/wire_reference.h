// Oracles for the serve wire codec (serve_wire_fuzz_test): the mini_json
// reader, numeric conversions, id-list codec, request/response parsers and
// encoders exactly as they stood before util/mini_json's single-pass
// scanner replaced the recursive std::map parser. Test-only: nothing under
// src/ links this library.
//
// The library's scanner and in-place parsers must accept and reject the
// same payloads with the same ParseError messages and fill the same fields;
// its append-only encoders must emit the same bytes.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "fedcons/serve/protocol.h"

namespace fedcons::reference {

[[nodiscard]] std::map<std::string, std::string> parse_mini_json(
    const std::string& text);
[[nodiscard]] const std::string& require_field(
    const std::map<std::string, std::string>& fields, const std::string& key);
[[nodiscard]] std::int64_t mini_json_int(const std::string& raw);
[[nodiscard]] std::uint64_t mini_json_uint(const std::string& raw);
[[nodiscard]] std::string json_escape(const std::string& s);

[[nodiscard]] std::string join_ids(const std::vector<SessionTaskId>& ids);
[[nodiscard]] std::vector<SessionTaskId> split_ids(const std::string& raw);

[[nodiscard]] std::string encode_frame(std::string_view payload);
[[nodiscard]] serve::ServeRequest parse_serve_request(
    const std::string& payload);
[[nodiscard]] std::string encode_serve_request(const serve::ServeRequest& req);
[[nodiscard]] std::string encode_serve_response(
    const serve::ServeResponse& resp);
[[nodiscard]] serve::ServeResponse parse_serve_response(
    const std::string& payload);

}  // namespace fedcons::reference
