// Wire-protocol tests for the fedcons_serve frame codec and request/response
// grammar. The framing contract under test: length-prefixed newline-JSON is
// self-delimiting under arbitrary byte fragmentation, framing errors are
// unrecoverable (ParseError from the decoder), and request-level errors are
// loud — the strict mini_json conversions turn trailing garbage and
// overflowing integers into ParseError, never silent zeros or saturations.
#include "fedcons/serve/protocol.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "fedcons/util/parse_error.h"

namespace fedcons {
namespace serve {
namespace {

// ---- framing ---------------------------------------------------------------

TEST(ServeFrameTest, EncodeProducesLengthPrefixAndTrailingNewline) {
  EXPECT_EQ(encode_frame("{}"), "2\n{}\n");
  EXPECT_EQ(encode_frame(""), "0\n\n");
}

TEST(ServeFrameTest, DecoderRoundTripsMultipleFrames) {
  const std::string wire =
      encode_frame("{\"a\": 1}") + encode_frame("{\"b\": 2}");
  FrameDecoder decoder;
  decoder.feed(wire.data(), wire.size());
  std::string payload;
  ASSERT_TRUE(decoder.next(payload));
  EXPECT_EQ(payload, "{\"a\": 1}");
  ASSERT_TRUE(decoder.next(payload));
  EXPECT_EQ(payload, "{\"b\": 2}");
  EXPECT_FALSE(decoder.next(payload));
  EXPECT_EQ(decoder.pending_bytes(), 0u);
}

TEST(ServeFrameTest, DecoderHandlesBytewiseFeed) {
  const std::string wire = encode_frame("{\"op\": \"ping\", \"seq\": 7}");
  FrameDecoder decoder;
  std::string payload;
  for (std::size_t i = 0; i + 1 < wire.size(); ++i) {
    decoder.feed(&wire[i], 1);
    EXPECT_FALSE(decoder.next(payload)) << "complete at byte " << i;
  }
  decoder.feed(&wire[wire.size() - 1], 1);
  ASSERT_TRUE(decoder.next(payload));
  EXPECT_EQ(payload, "{\"op\": \"ping\", \"seq\": 7}");
}

TEST(ServeFrameTest, PayloadMayContainNewlines) {
  // The length prefix, not a separator scan, delimits the frame: embedded
  // newlines (escaped task-system text contains them) must pass through.
  const std::string payload = "{\"system\": \"line1\nline2\n\"}";
  const std::string wire = encode_frame(payload);
  FrameDecoder decoder;
  decoder.feed(wire.data(), wire.size());
  std::string out;
  ASSERT_TRUE(decoder.next(out));
  EXPECT_EQ(out, payload);
}

TEST(ServeFrameTest, GarbageLengthPrefixThrows) {
  FrameDecoder decoder;
  const std::string wire = "12x\n{}\n";
  decoder.feed(wire.data(), wire.size());
  std::string payload;
  EXPECT_THROW(decoder.next(payload), ParseError);
}

TEST(ServeFrameTest, OversizedLengthPrefixThrows) {
  FrameDecoder decoder(/*max_frame_bytes=*/64);
  const std::string wire = "65\n";
  decoder.feed(wire.data(), wire.size());
  std::string payload;
  EXPECT_THROW(decoder.next(payload), ParseError);
}

TEST(ServeFrameTest, OverflowingLengthPrefixThrows) {
  FrameDecoder decoder;
  const std::string wire = "99999999999999999999999999\n";
  decoder.feed(wire.data(), wire.size());
  std::string payload;
  EXPECT_THROW(decoder.next(payload), ParseError);
}

TEST(ServeFrameTest, UnterminatedLongPrefixFailsEarly) {
  // A run of digits longer than any valid length prefix can never become a
  // frame; the decoder must not buffer it forever waiting for a newline.
  FrameDecoder decoder;
  const std::string wire(32, '1');
  decoder.feed(wire.data(), wire.size());
  std::string payload;
  EXPECT_THROW(decoder.next(payload), ParseError);
}

TEST(ServeFrameTest, LengthDesyncThrows) {
  // Prefix says 2 bytes but the payload runs longer: the byte where the
  // trailing newline must sit is not one, which is exactly how a corrupted
  // length manifests.
  FrameDecoder decoder;
  const std::string wire = "2\n{\"a\": 1}\n";
  decoder.feed(wire.data(), wire.size());
  std::string payload;
  EXPECT_THROW(decoder.next(payload), ParseError);
}

TEST(ServeFrameTest, LongLivedStreamCompactsConsumedPrefix) {
  // Push enough frames through one decoder to force the lazy compaction
  // path; every frame must still decode intact.
  FrameDecoder decoder;
  const std::string payload(128, 'x');
  const std::string wire = encode_frame(payload);
  std::string out;
  for (int i = 0; i < 1000; ++i) {
    decoder.feed(wire.data(), wire.size());
    ASSERT_TRUE(decoder.next(out));
    ASSERT_EQ(out, payload);
  }
  EXPECT_EQ(decoder.pending_bytes(), 0u);
}

// ---- requests --------------------------------------------------------------

TEST(ServeRequestTest, RoundTripsEveryOp) {
  std::vector<ServeRequest> reqs;
  {
    ServeRequest r;
    r.op = ServeOp::kOpen;
    r.seq = 1;
    r.m = 8;
    reqs.push_back(r);
  }
  {
    ServeRequest r;
    r.op = ServeOp::kRegister;
    r.seq = 2;
    r.session = 3;
    r.system = "tasks 1\ntask a\n";
    reqs.push_back(r);
  }
  {
    ServeRequest r;
    r.op = ServeOp::kAdmit;
    r.seq = 3;
    r.session = 3;
    r.has_content = true;
    r.content = 5;
    reqs.push_back(r);
  }
  {
    ServeRequest r;
    r.op = ServeOp::kAdmit;
    r.seq = 4;
    r.session = 3;
    r.system = "tasks 1\n";
    reqs.push_back(r);
  }
  {
    ServeRequest r;
    r.op = ServeOp::kRelease;
    r.seq = 5;
    r.session = 3;
    r.release_ids = {7};
    reqs.push_back(r);
  }
  {
    ServeRequest r;
    r.op = ServeOp::kSwap;
    r.seq = 6;
    r.session = 3;
    r.release_ids = {1, 2, 9};
    r.has_content = true;
    r.content = 0;
    reqs.push_back(r);
  }
  {
    ServeRequest r;
    r.op = ServeOp::kQuery;
    r.seq = 7;
    r.session = 3;
    reqs.push_back(r);
  }
  {
    ServeRequest r;
    r.op = ServeOp::kStats;
    r.seq = 8;
    reqs.push_back(r);
  }
  {
    ServeRequest r;
    r.op = ServeOp::kPing;
    r.seq = 9;
    reqs.push_back(r);
  }
  {
    ServeRequest r;
    r.op = ServeOp::kStall;
    r.seq = 10;
    r.stall_us = 1234;
    reqs.push_back(r);
  }
  {
    ServeRequest r;
    r.op = ServeOp::kShutdown;
    r.seq = 11;
    reqs.push_back(r);
  }
  for (const ServeRequest& req : reqs) {
    const ServeRequest back = parse_serve_request(encode_serve_request(req));
    EXPECT_EQ(back.op, req.op) << to_string(req.op);
    EXPECT_EQ(back.seq, req.seq);
    EXPECT_EQ(back.session, req.session);
    EXPECT_EQ(back.m, req.m);
    EXPECT_EQ(back.system, req.system);
    EXPECT_EQ(back.has_content, req.has_content);
    EXPECT_EQ(back.content, req.content);
    EXPECT_EQ(back.release_ids, req.release_ids);
    EXPECT_EQ(back.stall_us, req.stall_us);
  }
}

TEST(ServeRequestTest, UnknownOpThrows) {
  EXPECT_THROW(parse_serve_request(R"({"op": "frobnicate", "seq": 1})"),
               ParseError);
}

TEST(ServeRequestTest, MissingSeqThrows) {
  EXPECT_THROW(parse_serve_request(R"({"op": "ping"})"), ParseError);
}

TEST(ServeRequestTest, GarbageIntegerThrows) {
  // The "--threads=8x" bug class on the wire: a numeric field with trailing
  // garbage must be a loud error, not strtoll's silent prefix parse.
  EXPECT_THROW(parse_serve_request(R"({"op": "ping", "seq": 8x})"),
               ParseError);
  EXPECT_THROW(
      parse_serve_request(R"({"op": "open", "seq": 1, "m": "8 cores"})"),
      ParseError);
}

TEST(ServeRequestTest, OverflowingIntegerThrows) {
  EXPECT_THROW(
      parse_serve_request(
          R"({"op": "ping", "seq": 99999999999999999999999999})"),
      ParseError);
  EXPECT_THROW(
      parse_serve_request(
          R"({"op": "stall", "seq": 1, "us": 18446744073709551617})"),
      ParseError);
}

TEST(ServeRequestTest, OpenValidatesProcessorRange) {
  EXPECT_THROW(parse_serve_request(R"({"op": "open", "seq": 1, "m": 0})"),
               ParseError);
  EXPECT_THROW(parse_serve_request(R"({"op": "open", "seq": 1, "m": -3})"),
               ParseError);
  EXPECT_THROW(
      parse_serve_request(R"({"op": "open", "seq": 1, "m": 1048577})"),
      ParseError);
}

TEST(ServeRequestTest, AdmitNeedsExactlyOneOfSystemContent) {
  EXPECT_THROW(
      parse_serve_request(R"({"op": "admit", "seq": 1, "session": 0})"),
      ParseError);
  EXPECT_THROW(
      parse_serve_request(
          R"({"op": "admit", "seq": 1, "session": 0, "system": "t", )"
          R"("content": 0})"),
      ParseError);
}

// ---- observability fields --------------------------------------------------

TEST(ServeRequestTest, RoundTripsStatsFormatAndSeriesWindow) {
  ServeRequest prom;
  prom.op = ServeOp::kStats;
  prom.seq = 20;
  prom.prometheus = true;
  const ServeRequest prom_back =
      parse_serve_request(encode_serve_request(prom));
  EXPECT_EQ(prom_back.op, ServeOp::kStats);
  EXPECT_TRUE(prom_back.prometheus);

  // The series window op is gone: a window is the difference of two stats
  // snapshots. It now gets the recoverable unknown-op error.
  EXPECT_THROW(parse_serve_request(R"({"op": "stats_series", "seq": 21})"),
               ParseError);
  EXPECT_THROW(
      parse_serve_request(R"({"op": "stats_series", "seq": 22, "last": 16})"),
      ParseError);
}

TEST(ServeRequestTest, StatsFormatRejectsUnknownValues) {
  EXPECT_THROW(
      parse_serve_request(
          R"({"op": "stats", "seq": 1, "format": "openmetrics"})"),
      ParseError);
}

TEST(ServeRequestTest, RoundTripsStageEchoOnAnyOp) {
  ServeRequest req;
  req.op = ServeOp::kPing;
  req.seq = 30;
  req.echo_stages = true;
  const ServeRequest back = parse_serve_request(encode_serve_request(req));
  EXPECT_TRUE(back.echo_stages);
  // Absent flag parses false — stage echo is strictly opt-in per request.
  EXPECT_FALSE(
      parse_serve_request(R"({"op": "ping", "seq": 31})").echo_stages);
}

TEST(ServeResponseTest, RoundTripsStageBreakdown) {
  ServeResponse resp;
  resp.seq = 40;
  resp.has_stages = true;
  resp.stage_queue_us = 12;
  resp.stage_batch_us = 340;
  resp.stage_handle_us = 5;
  const ServeResponse back =
      parse_serve_response(encode_serve_response(resp));
  ASSERT_TRUE(back.has_stages);
  EXPECT_EQ(back.stage_queue_us, 12u);
  EXPECT_EQ(back.stage_batch_us, 340u);
  EXPECT_EQ(back.stage_handle_us, 5u);

  ServeResponse bare;
  bare.seq = 41;
  const ServeResponse bare_back =
      parse_serve_response(encode_serve_response(bare));
  EXPECT_FALSE(bare_back.has_stages);
}

// ---- responses -------------------------------------------------------------

TEST(ServeResponseTest, RoundTripsVerdict) {
  ServeResponse resp;
  resp.status = ServeStatus::kOk;
  resp.seq = 42;
  resp.has_verdict = true;
  resp.applied = true;
  resp.schedulable = true;
  resp.reject = "accepted";
  resp.task_ids = {3, 4};
  resp.residents = 5;
  const ServeResponse back =
      parse_serve_response(encode_serve_response(resp));
  EXPECT_EQ(back.status, ServeStatus::kOk);
  EXPECT_EQ(back.seq, 42u);
  ASSERT_TRUE(back.has_verdict);
  EXPECT_TRUE(back.applied);
  EXPECT_TRUE(back.schedulable);
  EXPECT_EQ(back.reject, "accepted");
  EXPECT_EQ(back.task_ids, (std::vector<SessionTaskId>{3, 4}));
  EXPECT_EQ(back.residents, 5u);
  EXPECT_EQ(back.raw, encode_serve_response(resp));
}

TEST(ServeResponseTest, RoundTripsSessionAndContentHandles) {
  ServeResponse opened;
  opened.seq = 1;
  opened.has_session = true;
  opened.session = 17;
  const ServeResponse open_back =
      parse_serve_response(encode_serve_response(opened));
  ASSERT_TRUE(open_back.has_session);
  EXPECT_EQ(open_back.session, 17u);

  ServeResponse registered;
  registered.seq = 2;
  registered.has_content = true;
  registered.content = 9;
  const ServeResponse reg_back =
      parse_serve_response(encode_serve_response(registered));
  ASSERT_TRUE(reg_back.has_content);
  EXPECT_EQ(reg_back.content, 9u);
}

TEST(ServeResponseTest, RoundTripsErrorAndRetryAfter) {
  ServeResponse err;
  err.status = ServeStatus::kError;
  err.seq = 3;
  err.error = "unknown session 12";
  const ServeResponse err_back =
      parse_serve_response(encode_serve_response(err));
  EXPECT_EQ(err_back.status, ServeStatus::kError);
  EXPECT_EQ(err_back.error, "unknown session 12");

  ServeResponse retry;
  retry.status = ServeStatus::kRetryAfter;
  retry.seq = 4;
  const ServeResponse retry_back =
      parse_serve_response(encode_serve_response(retry));
  EXPECT_EQ(retry_back.status, ServeStatus::kRetryAfter);
  EXPECT_EQ(retry_back.seq, 4u);
}

TEST(ServeResponseTest, ExtraMembersSurviveInRaw) {
  // The stats payload travels as raw spliced members; the parse keeps the
  // full payload for scrape consumers instead of structuring it.
  ServeResponse resp;
  resp.seq = 5;
  resp.extra = ", \"batches\": 12";
  const std::string payload = encode_serve_response(resp);
  EXPECT_NE(payload.find("\"batches\": 12"), std::string::npos);
  const ServeResponse back = parse_serve_response(payload);
  EXPECT_EQ(back.raw, payload);
}

TEST(ServeResponseTest, GarbageStatusThrows) {
  EXPECT_THROW(parse_serve_response(R"({"status": "maybe", "seq": 1})"),
               ParseError);
}

// ---- id lists --------------------------------------------------------------

TEST(ServeIdsTest, JoinSplitRoundTrip) {
  const std::vector<SessionTaskId> ids = {0, 5, 123456789};
  EXPECT_EQ(join_ids(ids), "0 5 123456789");
  EXPECT_EQ(split_ids("0 5 123456789"), ids);
  EXPECT_TRUE(split_ids("").empty());
  EXPECT_EQ(join_ids({}), "");
}

TEST(ServeIdsTest, SplitRejectsGarbage) {
  EXPECT_THROW(split_ids("1 2x 3"), ParseError);
  EXPECT_THROW(split_ids("1 -2"), ParseError);
}

}  // namespace
}  // namespace serve
}  // namespace fedcons
