// Seeded differential fuzz of the serve wire codec. The oracles in
// tests/reference/wire_reference.h are the recursive std::map reader, the
// map-based request/response parsers and the string-concatenating encoders
// that the single-pass scanner, the in-place parsers and the append-only
// encoders replaced. Over every op and every optional field, mutated by
// byte flips, insertions, truncations, duplicated keys, nested objects and
// quoted numbers, the two sides must agree on whether a payload throws
// (with the same message), fill the same fields when it does not, and emit
// the same bytes. Parsing into a reused object must equal parsing into a
// fresh one, which catches a field the in-place parse forgets to reset.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "fedcons/serve/protocol.h"
#include "fedcons/util/mini_json.h"
#include "fedcons/util/rng.h"
#include "reference/wire_reference.h"

namespace fedcons {
namespace {

using serve::ServeOp;
using serve::ServeRequest;
using serve::ServeResponse;
using serve::ServeStatus;

// ---- random inputs ---------------------------------------------------------

std::size_t pick(Rng& rng, std::size_t n) {
  return static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
}

bool coin(Rng& rng) { return rng.uniform_int(0, 1) == 1; }

/// Integers across the whole range, weighted to small ones.
std::uint64_t random_uint(Rng& rng) {
  switch (pick(rng, 4)) {
    case 0: return static_cast<std::uint64_t>(rng.uniform_int(0, 9));
    case 1: return static_cast<std::uint64_t>(rng.uniform_int(0, 100000));
    case 2: return rng.next_u64();
    default: return ~std::uint64_t{0} - pick(rng, 3);
  }
}

/// Text with every character class the escaper and the reader treat
/// differently: plain, the short escapes, other control characters, NUL,
/// '/', and bytes above 0x7f.
std::string random_text(Rng& rng, std::size_t max_len) {
  static const std::string kChars =
      std::string("abcXYZ019 .:-_{}[],") + "\"\\/\n\t\r\x01\x1f\x7f\xc3\xff" +
      std::string(1, '\0');
  std::string out;
  const std::size_t len = pick(rng, max_len + 1);
  for (std::size_t i = 0; i < len; ++i) out += kChars[pick(rng, kChars.size())];
  return out;
}

std::vector<SessionTaskId> random_ids(Rng& rng, std::size_t max_len) {
  std::vector<SessionTaskId> out(pick(rng, max_len + 1));
  for (SessionTaskId& id : out) id = random_uint(rng);
  return out;
}

ServeRequest random_request(Rng& rng) {
  ServeRequest r;
  r.op = static_cast<ServeOp>(pick(rng, 10));
  r.seq = random_uint(rng);
  r.session = random_uint(rng);
  // Mostly valid processor counts, sometimes outside [1, 2^20].
  r.m = coin(rng) ? static_cast<int>(rng.uniform_int(1, 64))
                  : static_cast<int>(rng.uniform_int(-3, (1 << 20) + 3));
  r.has_content = coin(rng);
  r.content = random_uint(rng);
  if (!r.has_content || r.op == ServeOp::kRegister) {
    r.system = random_text(rng, 40);
  }
  if (r.op == ServeOp::kRelease) r.release_ids = random_ids(rng, 1);
  if (r.op == ServeOp::kSwap) r.release_ids = random_ids(rng, 4);
  r.stall_us = random_uint(rng);
  r.prometheus = coin(rng);
  r.echo_stages = coin(rng);
  return r;
}

/// Extra members of the kinds a stats response splices in, plus some that
/// repeat a key the parser reads (a later duplicate wins).
std::string random_extra(Rng& rng) {
  static const std::vector<std::string> kExtras = {
      "",
      ", \"schema_version\": 1, \"uptime_us\": 1234, \"requests_enqueued\": 7"
      ", \"batch_size\": {\"count\": 3, \"sum\": 9, \"buckets\": \"0 3\"}"
      ", \"latency_us\": {\"count\": 0}",
      ", \"schema_version\": 1, \"prometheus\": \"# HELP x\\nx_total 3\\n\"",
      ", \"seq\": 77",
      ", \"status\": \"error\"",
      ", \"applied\": 1",
      ", \"stage_queue_us\": 5",
      ", \"empty\": {}",
  };
  return kExtras[pick(rng, kExtras.size())];
}

ServeResponse random_response(Rng& rng) {
  ServeResponse r;
  r.status = static_cast<ServeStatus>(pick(rng, 3));
  r.seq = random_uint(rng);
  r.error = random_text(rng, 30);
  r.has_session = coin(rng);
  r.session = random_uint(rng);
  r.has_content = coin(rng);
  r.content = random_uint(rng);
  r.has_verdict = coin(rng);
  r.applied = coin(rng);
  r.schedulable = coin(rng);
  r.reject = coin(rng) ? "accepted" : random_text(rng, 12);
  r.task_ids = random_ids(rng, 3);
  r.residents = random_uint(rng);
  r.has_stages = coin(rng);
  r.stage_queue_us = random_uint(rng);
  r.stage_batch_us = random_uint(rng);
  r.stage_handle_us = random_uint(rng);
  r.extra = random_extra(rng);
  return r;
}

// ---- mutations -------------------------------------------------------------

/// Start offsets of the top-level members after the first (", \"key\"").
std::vector<std::size_t> member_starts(const std::string& s) {
  std::vector<std::size_t> out;
  for (std::size_t i = s.find(", \""); i != std::string::npos;
       i = s.find(", \"", i + 1)) {
    out.push_back(i);
  }
  return out;
}

std::string mutate_once(Rng& rng, std::string s) {
  static const std::string kBytes =
      std::string("{}[]\":,\\ \n\t\r\v\f0123456789-+.eEux/az") + "\xff" +
      std::string(1, '\0');
  static const std::vector<std::string> kTokens = {
      "\"", "\\", "{", "}", ",", ":", " ", "\\u00", "\\u+07f", "\\u0x7f",
      "\\u-001", "\\u 07f", "\\u0041", "\\uzzzz", "-", "0", "e", "1x",
      "\"k\": 1, ", "{\"a\": 1}", "\n", "\\n"};
  const std::size_t pos = s.empty() ? 0 : pick(rng, s.size() + 1);
  const std::size_t end_brace = s.rfind('}');
  switch (pick(rng, 8)) {
    case 0:  // byte flip
      if (!s.empty()) s[pick(rng, s.size())] = kBytes[pick(rng, kBytes.size())];
      break;
    case 1:  // insertion
      s.insert(pos, kTokens[pick(rng, kTokens.size())]);
      break;
    case 2:  // truncation
      s.resize(pos);
      break;
    case 3: {  // duplicate a member, or add one that repeats a key
      const std::vector<std::size_t> starts = member_starts(s);
      if (end_brace == std::string::npos) break;
      std::string member;
      if (!starts.empty() && coin(rng)) {
        const std::size_t i = pick(rng, starts.size());
        const std::size_t stop =
            i + 1 < starts.size() ? starts[i + 1] : end_brace;
        if (stop > starts[i]) member = s.substr(starts[i], stop - starts[i]);
      } else {
        static const std::vector<std::string> kDuplicates = {
            ", \"seq\": 12", ", \"op\": \"ping\"", ", \"status\": \"ok\"",
            ", \"session\": 3", ", \"content\": 4", ", \"system\": \"t\"",
            ", \"stages\": 0", ", \"stages\": \"1\"", ", \"format\": \"x\"",
            ", \"applied\": 0", ", \"task_ids\": \" 1\\t2 \"",
            ", \"releases\": \"5 x\"", ", \"error\": \"e\\\"\"",
            ", \"op\": \"sw\\u0061p\"", ", \"seq\": \"4\"", ", \"m\": 8"};
        member = kDuplicates[pick(rng, kDuplicates.size())];
      }
      s.insert(end_brace, member);
      break;
    }
    case 4: {  // nested objects: legal, empty, too deep, under a known key
      static const std::vector<std::string> kNested = {
          ", \"n\": {\"a\": 1, \"b\": \"x\\ty\"}", ", \"seq\": {\"x\": 1}",
          ", \"e\": {}", ", \"d\": {\"e\": {\"f\": 1}}",
          ", \"s\\u0074\": {\"k\\\"\": 2}", ", \"op\": {}"};
      if (end_brace != std::string::npos) {
        s.insert(end_brace, kNested[pick(rng, kNested.size())]);
      }
      break;
    }
    case 5: {  // quote a number, or unquote a string value
      std::vector<std::size_t> numbers;
      std::vector<std::size_t> strings;
      for (std::size_t i = s.find(": "); i != std::string::npos;
           i = s.find(": ", i + 1)) {
        if (i + 2 >= s.size()) continue;
        const char c = s[i + 2];
        if ((c >= '0' && c <= '9') || c == '-') numbers.push_back(i + 2);
        if (c == '"') strings.push_back(i + 2);
      }
      if (!numbers.empty() && (strings.empty() || coin(rng))) {
        const std::size_t at = numbers[pick(rng, numbers.size())];
        std::size_t stop = at;
        while (stop < s.size() && s[stop] != ',' && s[stop] != '}') ++stop;
        s.insert(stop, "\"");
        s.insert(at, "\"");
      } else if (!strings.empty()) {
        const std::size_t at = strings[pick(rng, strings.size())];
        const std::size_t close = s.find('"', at + 1);
        if (close != std::string::npos) {
          s.erase(close, 1);
          s.erase(at, 1);
        }
      }
      break;
    }
    case 6: {  // well-formed members with values the parsers must refuse
      static const std::vector<std::string> kBadValues = {
          ", \"stages\": \"x\"", ", \"stages\": -1", ", \"m\": 0",
          ", \"m\": 99999999", ", \"us\": \"y\"", ", \"id\": \"z\"",
          ", \"session\": -1", ", \"content\": \"c\"", ", \"seq\": \"s\"",
          ", \"format\": \"json\"", ", \"releases\": \"1 x\"",
          ", \"task_ids\": \"t\"", ", \"applied\": \"a\"",
          ", \"residents\": 1.5", ", \"stage_batch_us\": -2"};
      if (end_brace != std::string::npos) {
        s.insert(end_brace, kBadValues[pick(rng, kBadValues.size())]);
      }
      break;
    }
    default:  // whitespace where the grammar allows it, and where it does not
      s.insert(pos, pick(rng, 2) == 0 ? " " : "\r\n\t");
      break;
  }
  return s;
}

std::string mutate(Rng& rng, std::string s) {
  const std::size_t rounds = pick(rng, 4);  // 0 keeps the payload valid
  for (std::size_t i = 0; i < rounds; ++i) s = mutate_once(rng, std::move(s));
  return s;
}

// ---- comparison ------------------------------------------------------------

std::string describe(const ServeRequest& r) {
  std::ostringstream os;
  os << "op=" << serve::to_string(r.op) << " seq=" << r.seq
     << " session=" << r.session << " m=" << r.m
     << " system=" << json_escape(r.system)
     << " has_content=" << r.has_content << " content=" << r.content
     << " release_ids=" << join_ids(r.release_ids)
     << " stall_us=" << r.stall_us << " prometheus=" << r.prometheus
     << " echo_stages=" << r.echo_stages;
  return os.str();
}

std::string describe(const ServeResponse& r) {
  std::ostringstream os;
  os << "status=" << serve::to_string(r.status) << " seq=" << r.seq
     << " error=" << json_escape(r.error) << " has_session=" << r.has_session
     << " session=" << r.session << " has_content=" << r.has_content
     << " content=" << r.content << " has_verdict=" << r.has_verdict
     << " applied=" << r.applied << " schedulable=" << r.schedulable
     << " reject=" << json_escape(r.reject)
     << " task_ids=" << join_ids(r.task_ids) << " residents=" << r.residents
     << " has_stages=" << r.has_stages << " stages=" << r.stage_queue_us
     << "/" << r.stage_batch_us << "/" << r.stage_handle_us
     << " extra=" << json_escape(r.extra) << " raw=" << json_escape(r.raw);
  return os.str();
}

std::string describe(const std::map<std::string, std::string>& fields) {
  std::string out;
  for (const auto& [k, v] : fields) {
    out += json_escape(k) + "=" + json_escape(v) + ";";
  }
  return out;
}

/// A parse as an outcome: the ParseError message, or the described result.
struct Outcome {
  bool threw = false;
  std::string text;
};

template <typename F>
Outcome outcome_of(F&& parse) {
  try {
    return {false, parse()};
  } catch (const ParseError& e) {
    return {true, e.what()};
  }
}

void expect_same(const Outcome& oracle, const Outcome& got,
                 const std::string& payload, const char* what) {
  EXPECT_EQ(got.threw, oracle.threw)
      << what << " on payload " << json_escape(payload) << "\n oracle: "
      << oracle.text << "\n    got: " << got.text;
  EXPECT_EQ(got.text, oracle.text)
      << what << " on payload " << json_escape(payload);
}

/// Valid and mutated payloads: encoded requests and responses, each
/// mutated by a seeded stream.
template <typename F>
void for_each_payload(std::uint64_t seed, int count, F&& check) {
  Rng rng(seed);
  for (int i = 0; i < count; ++i) {
    const std::string base =
        coin(rng) ? reference::encode_serve_request(random_request(rng))
                  : reference::encode_serve_response(random_response(rng));
    check(mutate(rng, base));
  }
}

constexpr int kPayloads = 6000;

// ---- the reader ------------------------------------------------------------

TEST(ServeWireFuzz, MiniJsonReaderAgreesWithOracle) {
  int accepted = 0;
  int rejected = 0;
  for_each_payload(1, kPayloads, [&](const std::string& payload) {
    const Outcome oracle = outcome_of(
        [&] { return describe(reference::parse_mini_json(payload)); });
    const Outcome got =
        outcome_of([&] { return describe(parse_mini_json(payload)); });
    expect_same(oracle, got, payload, "parse_mini_json");
    (oracle.threw ? rejected : accepted) += 1;
  });
  EXPECT_GT(accepted, kPayloads / 4);
  EXPECT_GT(rejected, kPayloads / 4);
}

// ---- requests --------------------------------------------------------------

TEST(ServeWireFuzz, RequestParserAgreesWithOracle) {
  int accepted = 0;
  int rejected = 0;
  ServeRequest reused;  // carries every earlier payload's fields
  for_each_payload(2, kPayloads, [&](const std::string& payload) {
    const Outcome oracle = outcome_of(
        [&] { return describe(reference::parse_serve_request(payload)); });
    const Outcome fresh = outcome_of(
        [&] { return describe(serve::parse_serve_request(payload)); });
    const Outcome in_place = outcome_of([&] {
      serve::parse_serve_request(std::string_view(payload), reused);
      return describe(reused);
    });
    expect_same(oracle, fresh, payload, "parse_serve_request");
    expect_same(oracle, in_place, payload, "parse_serve_request in place");
    (oracle.threw ? rejected : accepted) += 1;
  });
  EXPECT_GT(accepted, kPayloads / 10);
  EXPECT_GT(rejected, kPayloads / 4);
}

// ---- responses -------------------------------------------------------------

TEST(ServeWireFuzz, ResponseParserAgreesWithOracle) {
  int accepted = 0;
  int rejected = 0;
  ServeResponse reused;
  for_each_payload(3, kPayloads, [&](const std::string& payload) {
    const Outcome oracle = outcome_of(
        [&] { return describe(reference::parse_serve_response(payload)); });
    const Outcome fresh = outcome_of(
        [&] { return describe(serve::parse_serve_response(payload)); });
    const Outcome in_place = outcome_of([&] {
      serve::parse_serve_response(std::string_view(payload), reused);
      return describe(reused);
    });
    expect_same(oracle, fresh, payload, "parse_serve_response");
    expect_same(oracle, in_place, payload, "parse_serve_response in place");
    (oracle.threw ? rejected : accepted) += 1;
  });
  EXPECT_GT(accepted, kPayloads / 10);
  EXPECT_GT(rejected, kPayloads / 4);
}

// ---- encoders --------------------------------------------------------------

TEST(ServeWireFuzz, EncodersEmitTheOracleBytes) {
  Rng rng(4);
  std::string framed = "7\nleading\n";  // a buffer already holding a frame
  std::string expected = framed;
  for (int i = 0; i < kPayloads; ++i) {
    const ServeRequest req = random_request(rng);
    const std::string req_bytes = reference::encode_serve_request(req);
    ASSERT_EQ(serve::encode_serve_request(req), req_bytes)
        << describe(req);
    ASSERT_EQ(serve::encode_frame(req_bytes), reference::encode_frame(req_bytes));

    const ServeResponse resp = random_response(rng);
    const std::string resp_bytes = reference::encode_serve_response(resp);
    ASSERT_EQ(serve::encode_serve_response(resp), resp_bytes)
        << describe(resp);
    serve::append_serve_response_frame(framed, resp);
    expected += reference::encode_frame(resp_bytes);
    ASSERT_EQ(framed, expected) << describe(resp);
    if (framed.size() > 1 << 16) {
      framed.clear();
      expected.clear();
    }

    const std::string text = random_text(rng, 24);
    ASSERT_EQ(json_escape(text), reference::json_escape(text));
    const std::vector<SessionTaskId> ids = random_ids(rng, 4);
    ASSERT_EQ(join_ids(ids), reference::join_ids(ids));
  }
}

// ---- id lists and integers -------------------------------------------------

TEST(ServeWireFuzz, IdListsAndIntegersAgreeWithOracle) {
  // Every byte std::isspace treats as a separator in the C locale, and some
  // it does not.
  static const std::string kChars =
      std::string("0123456789 \t\n\v\f\r+-x.e") + "\xa0\x85" +
      std::string(1, '\0');
  Rng rng(5);
  int accepted = 0;
  for (int i = 0; i < kPayloads; ++i) {
    std::string raw;
    const std::size_t len = pick(rng, 12);
    for (std::size_t k = 0; k < len; ++k) raw += kChars[pick(rng, kChars.size())];
    if (coin(rng)) raw = std::to_string(random_uint(rng)) + raw;

    const Outcome ids_oracle =
        outcome_of([&] { return join_ids(reference::split_ids(raw)); });
    const Outcome ids_got = outcome_of([&] { return join_ids(split_ids(raw)); });
    expect_same(ids_oracle, ids_got, raw, "split_ids");

    const Outcome uint_oracle = outcome_of(
        [&] { return std::to_string(reference::mini_json_uint(raw)); });
    const Outcome uint_got =
        outcome_of([&] { return std::to_string(mini_json_uint(raw)); });
    expect_same(uint_oracle, uint_got, raw, "mini_json_uint");

    const Outcome int_oracle = outcome_of(
        [&] { return std::to_string(reference::mini_json_int(raw)); });
    const Outcome int_got =
        outcome_of([&] { return std::to_string(mini_json_int(raw)); });
    expect_same(int_oracle, int_got, raw, "mini_json_int");
    accepted += ids_oracle.threw ? 0 : 1;
  }
  EXPECT_GT(accepted, kPayloads / 10);
}

}  // namespace
}  // namespace fedcons
