// Tests for the fleet wire protocol: every message type must survive
// an encode/decode round trip byte-exactly, the decoder must reject
// anything the encoder did not write, and the incremental framer must
// reassemble frames from arbitrary byte dribbles while treating
// corrupt length prefixes as protocol errors, never as allocations.
#include "fleet/protocol.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "fleet/channel.h"

namespace dash::fleet {
namespace {

/// Round-trip one message and return the decoded copy.
Message round_trip(const Message& m) {
  return decode_message(encode_message(m));
}

TEST(Protocol, HelloRoundTrips) {
  const Message m = make_hello("0123456789abcdef", "agent \"zero\"\n");
  const Message d = round_trip(m);
  EXPECT_EQ(d.type, MessageType::kHello);
  EXPECT_EQ(d.version, kProtocolVersion);
  EXPECT_EQ(d.spec_hash, m.spec_hash);
  EXPECT_EQ(d.agent, m.agent);
}

TEST(Protocol, WelcomeRoundTripsRowsFlag) {
  for (const bool rows : {false, true}) {
    const Message d = round_trip(make_welcome(48, 2500, rows));
    EXPECT_EQ(d.type, MessageType::kWelcome);
    EXPECT_EQ(d.version, kProtocolVersion);
    EXPECT_EQ(d.cells, 48u);
    EXPECT_EQ(d.heartbeat_ms, 2500u);
    EXPECT_EQ(d.rows, rows);
  }
  // The flag is written as 0/1; anything else is corruption.
  EXPECT_THROW(
      decode_message("{\"type\":\"welcome\",\"version\":1,\"cells\":1,"
                     "\"heartbeat_ms\":10,\"rows\":2}"),
      FrameError);
}

TEST(Protocol, BareMessagesRoundTrip) {
  EXPECT_EQ(round_trip(make_claim()).type, MessageType::kClaim);
  EXPECT_EQ(round_trip(make_heartbeat()).type, MessageType::kHeartbeat);
  EXPECT_EQ(round_trip(make_status()).type, MessageType::kStatus);
  EXPECT_EQ(encode_message(make_claim()), "{\"type\":\"claim\"}");
}

TEST(Protocol, GrantResultReportShutdownErrorRoundTrip) {
  EXPECT_EQ(round_trip(make_grant(17)).cell, 17u);

  const std::string record =
      "{\"cell\":3,\"spec_hash\":\"00ff\",\"group\":{\"a\":[1,2]}}";
  const Message r = round_trip(make_result(3, record));
  EXPECT_EQ(r.type, MessageType::kResult);
  EXPECT_EQ(r.cell, 3u);
  EXPECT_EQ(r.record, record);

  EXPECT_EQ(round_trip(make_report("7/8 cells done")).text, "7/8 cells done");
  EXPECT_EQ(round_trip(make_shutdown("grid complete")).text, "grid complete");

  const Message e = round_trip(make_error("spec-mismatch", "hash \"x\""));
  EXPECT_EQ(e.type, MessageType::kError);
  EXPECT_EQ(e.code, "spec-mismatch");
  EXPECT_EQ(e.message, "hash \"x\"");
}

TEST(Protocol, RowsRoundTripsLinesIncludingEmpty) {
  const Message d = round_trip(
      make_rows(5, {"0,0,16,dash,1,2", "line with \"quotes\"\tand\ttabs"}));
  EXPECT_EQ(d.type, MessageType::kRows);
  EXPECT_EQ(d.cell, 5u);
  ASSERT_EQ(d.lines.size(), 2u);
  EXPECT_EQ(d.lines[0], "0,0,16,dash,1,2");
  EXPECT_EQ(d.lines[1], "line with \"quotes\"\tand\ttabs");

  EXPECT_TRUE(round_trip(make_rows(0, {})).lines.empty());
}

TEST(Protocol, DecodeRejectsCorruption) {
  EXPECT_THROW(decode_message(""), FrameError);
  EXPECT_THROW(decode_message("{\"type\":\"gossip\"}"), FrameError);
  // A known type that is a proper prefix of the payload's type string
  // must not match ("grant" vs "grantx").
  EXPECT_THROW(decode_message("{\"type\":\"grantx\",\"cell\":1}"),
               FrameError);
  // Missing / misordered fields.
  EXPECT_THROW(decode_message("{\"type\":\"grant\"}"), FrameError);
  EXPECT_THROW(decode_message("{\"type\":\"grant\",\"cell\":}"), FrameError);
  EXPECT_THROW(
      decode_message("{\"type\":\"hello\",\"spec_hash\":\"a\","
                     "\"version\":1,\"agent\":\"x\"}"),
      FrameError);
  // Trailing garbage after a well-formed message.
  EXPECT_THROW(decode_message("{\"type\":\"claim\"}{"), FrameError);
  EXPECT_THROW(decode_message(encode_message(make_claim()) + " "),
               FrameError);
  // Unterminated string and unterminated rows array.
  EXPECT_THROW(
      decode_message("{\"type\":\"shutdown\",\"text\":\"bye"), FrameError);
  EXPECT_THROW(
      decode_message("{\"type\":\"rows\",\"cell\":1,\"lines\":[\"a\""),
      FrameError);
}

TEST(Protocol, DecodeRejectsIntegersAboveTheirType) {
  // 2^64 + 3 once wrapped to cell 3, and 2^32 + 1 to version 1.
  EXPECT_THROW(
      decode_message("{\"type\":\"grant\",\"cell\":18446744073709551619}"),
      FrameError);
  EXPECT_THROW(decode_message("{\"type\":\"hello\",\"version\":4294967297,"
                              "\"spec_hash\":\"a\",\"agent\":\"x\"}"),
               FrameError);
  EXPECT_EQ(
      decode_message("{\"type\":\"grant\",\"cell\":18446744073709551615}")
          .cell,
      18446744073709551615ULL);
}

// ---- framing ---------------------------------------------------------------

TEST(Framing, FrameRoundTripsThroughTakeFrame) {
  const std::string payload = encode_message(make_grant(9));
  std::string buf = frame_bytes(payload);
  EXPECT_EQ(buf.size(), payload.size() + 4);
  std::string out;
  ASSERT_TRUE(take_frame(&buf, &out));
  EXPECT_EQ(out, payload);
  EXPECT_TRUE(buf.empty());
}

TEST(Framing, TakeFrameReassemblesByteDribbles) {
  // Two frames delivered one byte at a time -- the short-read shape a
  // slow socket produces -- must yield exactly two payloads.
  const std::string a = encode_message(make_claim());
  const std::string b = encode_message(make_shutdown("done"));
  const std::string wire = frame_bytes(a) + frame_bytes(b);

  std::string buf;
  std::vector<std::string> got;
  for (const char c : wire) {
    buf += c;
    std::string out;
    while (take_frame(&buf, &out)) got.push_back(out);
  }
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0], a);
  EXPECT_EQ(got[1], b);
  EXPECT_TRUE(buf.empty());
}

TEST(Framing, TakeFrameRejectsCorruptLengthPrefixes) {
  std::string out;
  // Zero length: no message encodes to zero bytes.
  std::string zero("\x00\x00\x00\x00", 4);
  EXPECT_THROW(take_frame(&zero, &out), FrameError);
  // A length beyond kMaxFrameBytes must throw instead of waiting for
  // (or allocating) gigabytes.
  std::string huge("\xff\xff\xff\xff", 4);
  EXPECT_THROW(take_frame(&huge, &out), FrameError);
  // An incomplete prefix is simply "need more bytes".
  std::string partial("\x00\x00", 2);
  EXPECT_FALSE(take_frame(&partial, &out));
}

// ---- endpoints -------------------------------------------------------------

TEST(Endpoints, ParsesBothSpellings) {
  const Endpoint u = Endpoint::parse("unix:/tmp/fleet.sock");
  EXPECT_EQ(u.kind, Endpoint::Kind::kUnix);
  EXPECT_EQ(u.path, "/tmp/fleet.sock");
  EXPECT_EQ(u.spec(), "unix:/tmp/fleet.sock");

  const Endpoint t = Endpoint::parse("tcp:127.0.0.1:4815");
  EXPECT_EQ(t.kind, Endpoint::Kind::kTcp);
  EXPECT_EQ(t.host, "127.0.0.1");
  EXPECT_EQ(t.port, 4815);
  EXPECT_EQ(t.spec(), "tcp:127.0.0.1:4815");

  // Host defaults to loopback; port 0 asks for an ephemeral port.
  const Endpoint short_form = Endpoint::parse("tcp:0");
  EXPECT_EQ(short_form.host, "127.0.0.1");
  EXPECT_EQ(short_form.port, 0);
}

TEST(Endpoints, RejectsMalformedSpecs) {
  EXPECT_THROW(Endpoint::parse(""), std::invalid_argument);
  EXPECT_THROW(Endpoint::parse("ipc:/x"), std::invalid_argument);
  EXPECT_THROW(Endpoint::parse("unix:"), std::invalid_argument);
  EXPECT_THROW(Endpoint::parse("tcp:"), std::invalid_argument);
  EXPECT_THROW(Endpoint::parse("tcp:host:notaport"), std::invalid_argument);
  EXPECT_THROW(Endpoint::parse("tcp:host:70000"), std::invalid_argument);
}

}  // namespace
}  // namespace dash::fleet
