// Tests for util/json.h, the one JSON codec: the string writer's bytes
// for every input byte, reader round trips, the reader's strictness
// (it accepts only what a writer emits), and every parser built on it
// rejecting every strict prefix of a document it wrote.
#include "util/json.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "api/metrics.h"
#include "api/sink.h"
#include "exp/runner.h"
#include "replay/trace.h"

namespace dash::util {
namespace {

std::string read_string(const std::string& text) {
  JsonReader r(text);
  std::string out = r.string();
  r.end();
  return out;
}

// ---- writer ---------------------------------------------------------------

TEST(JsonString, KnownAnswersForEveryByte) {
  for (int b = 0; b < 256; ++b) {
    std::string want;
    switch (b) {
      case '"':
        want = "\\\"";
        break;
      case '\\':
        want = "\\\\";
        break;
      case '\n':
        want = "\\n";
        break;
      case '\r':
        want = "\\r";
        break;
      case '\t':
        want = "\\t";
        break;
      default:
        if (b < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", b);
          want = buf;
        } else {
          want = std::string(1, static_cast<char>(b));
        }
    }
    EXPECT_EQ(json_string(std::string(1, static_cast<char>(b))),
              "\"" + want + "\"")
        << "byte " << b;
  }
  EXPECT_EQ(json_string(""), "\"\"");
  EXPECT_EQ(json_string(std::string(1, '\0')), "\"\\u0000\"");
  EXPECT_EQ(json_string("\x1f"), "\"\\u001f\"");
  EXPECT_EQ(json_string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
  EXPECT_EQ(json_string("\x7f\xc3\xa9"), "\"\x7f\xc3\xa9\"");
}

TEST(JsonString, EscapeRoundTripsControlBytes) {
  std::string nasty = "plain";
  for (int c = 0; c < 0x20; ++c) nasty += static_cast<char>(c);
  nasty += "\"\\ \xc3\xa9 end";
  EXPECT_EQ(read_string(json_string(nasty)), nasty);

  EXPECT_THROW(read_string("\"\\q\""), JsonError);      // unknown escape
  EXPECT_THROW(read_string("\"tail\\"), JsonError);     // dangling backslash
  EXPECT_THROW(read_string("\"\\u00g0\""), JsonError);  // bad hex digit
  EXPECT_THROW(read_string("\"\\u0100\""), JsonError);  // beyond \u00XX
}

TEST(JsonString, RoundTripsEveryByte) {
  std::string all;
  for (int b = 0; b < 256; ++b) all += static_cast<char>(b);
  EXPECT_EQ(read_string(json_string(all)), all);
  for (const char* s : {"", "a", "\"", "\\\\", "{\"x\":[1]}", "\t\t"}) {
    EXPECT_EQ(read_string(json_string(s)), s);
  }
}

// ---- reader strictness ----------------------------------------------------

TEST(JsonReader, StringsAcceptOnlyTheWritersSpelling) {
  EXPECT_THROW(read_string("\"abc"), JsonError);         // unterminated
  EXPECT_THROW(read_string("abc\""), JsonError);         // no opening quote
  EXPECT_THROW(read_string("\"\\u001F\""), JsonError);   // upper-case hex
  EXPECT_THROW(read_string("\"\\u0041\""), JsonError);   // 'A' is written raw
  EXPECT_THROW(read_string("\"\\u000a\""), JsonError);   // written as \n
  EXPECT_THROW(read_string("\"\\u00ff\""), JsonError);   // written raw
  EXPECT_THROW(read_string("\"\\u001\""), JsonError);    // short \u
  EXPECT_THROW(read_string("\"\\/\""), JsonError);       // never written
  EXPECT_THROW(read_string("\"a\nb\""), JsonError);      // raw control byte
  EXPECT_THROW(read_string("\"a\" "), JsonError);        // trailing bytes
  EXPECT_EQ(read_string("\"\\u001f\\t\""), "\x1f\t");
}

TEST(JsonReader, IntegersAreRangeChecked) {
  const auto read = [](const std::string& text, auto zero) {
    JsonReader r(text);
    const auto v = r.uint<decltype(zero)>();
    r.end();
    return v;
  };
  EXPECT_EQ(read("0", std::uint8_t{}), 0u);
  EXPECT_EQ(read("255", std::uint8_t{}), 255u);
  EXPECT_THROW(read("256", std::uint8_t{}), JsonError);
  EXPECT_EQ(read("4294967295", std::uint32_t{}), 4294967295u);
  EXPECT_THROW(read("4294967296", std::uint32_t{}), JsonError);
  EXPECT_THROW(read("4294967299", std::uint32_t{}), JsonError);
  EXPECT_EQ(read("2147483647", int{}), 2147483647);
  EXPECT_THROW(read("2147483648", int{}), JsonError);
  EXPECT_EQ(read("18446744073709551615", std::uint64_t{}),
            18446744073709551615ULL);
  EXPECT_THROW(read("18446744073709551616", std::uint64_t{}), JsonError);
  EXPECT_THROW(read("99999999999999999999999", std::uint64_t{}), JsonError);
  EXPECT_THROW(read("", std::uint64_t{}), JsonError);
  EXPECT_THROW(read("-1", std::uint64_t{}), JsonError);
  EXPECT_THROW(read("+1", std::uint64_t{}), JsonError);
  EXPECT_THROW(read("007", std::uint64_t{}), JsonError);  // leading zeros
  EXPECT_THROW(read("7 ", std::uint64_t{}), JsonError);   // trailing bytes
}

TEST(JsonReader, ObjectIsOneBalancedValue) {
  const auto read = [](const std::string& text) {
    JsonReader r(text);
    const std::string out(r.object());
    r.end();
    return out;
  };
  const std::string group = "{\"a\":[1,{\"b\":\"}]\\\"\"}],\"c\":{}}";
  EXPECT_EQ(read(group), group);
  EXPECT_EQ(read("{}"), "{}");
  EXPECT_THROW(read("{\"a\":[1}"), JsonError);   // bracket mismatch
  EXPECT_THROW(read("{\"a\":1"), JsonError);     // unclosed
  EXPECT_THROW(read("{\"a\":\"}"), JsonError);   // brace inside a string
  EXPECT_THROW(read("{\"a\\q\":1}"), JsonError);  // bad escape inside
  EXPECT_THROW(read("{\"a\":1}}"), JsonError);   // trailing bytes
  EXPECT_THROW(read("[1]"), JsonError);          // not an object
  for (std::size_t cut = 0; cut < group.size(); ++cut) {
    EXPECT_THROW(read(group.substr(0, cut)), JsonError) << cut;
  }
}

TEST(JsonReader, NumbersBooleansAndDigests) {
  const auto number = [](const std::string& text) {
    JsonReader r(text);
    const double v = r.number();
    r.end();
    return v;
  };
  EXPECT_EQ(number("3"), 3.0);
  EXPECT_EQ(number("16.75"), 16.75);
  EXPECT_EQ(number("3.201562119"), 3.201562119);
  EXPECT_EQ(number("1e+10"), 1e10);
  EXPECT_THROW(number("1.50"), JsonError);   // not the writer's spelling
  EXPECT_THROW(number("03"), JsonError);
  EXPECT_THROW(number("10000000000"), JsonError);  // written as 1e+10
  EXPECT_THROW(number(""), JsonError);

  JsonReader b("truefalse");
  EXPECT_TRUE(b.boolean());
  EXPECT_FALSE(b.boolean());
  b.end();
  JsonReader bad("yes");
  EXPECT_THROW(bad.boolean(), JsonError);

  JsonReader h("00000000deadbeef");
  EXPECT_EQ(h.hex16(), 0xdeadbeefULL);
  h.end();
  JsonReader upper("00000000DEADBEEF");
  EXPECT_THROW(upper.hex16(), JsonError);
  JsonReader shorter("deadbeef");
  EXPECT_THROW(shorter.hex16(), JsonError);
}

TEST(JsonReader, ErrorsNameTheExpectationAndOffset) {
  JsonReader r("{\"cell\":x}");
  r.expect("{\"cell\":");
  try {
    r.uint<std::size_t>();
    FAIL() << "expected JsonError";
  } catch (const JsonError& e) {
    EXPECT_NE(std::string(e.what()).find("at byte 8"), std::string::npos)
        << e.what();
  }
}

// ---- every parser on the codec rejects every strict prefix ----------------

TEST(JsonCodec, ParsersRejectEveryStrictPrefix) {
  // Trace: the header alone, then each event kind and the footer as an
  // interior line (a torn *final* line is dropped by contract; a blank
  // line is skipped, so the sweep starts at one byte).
  replay::Trace t;
  t.healer = "dash";
  t.scenario = "churn:0.5,0.5x4";
  t.seed = 7;
  t.graph_text = "2 1\n0 1\n";
  t.state_text = "a\tb\\c\n";
  const std::string header = replay::header_line(t);
  for (std::size_t cut = 0; cut < header.size(); ++cut) {
    std::istringstream in(header.substr(0, cut));
    EXPECT_THROW(replay::load_trace(in), replay::TraceError)
        << "header prefix " << cut;
  }
  replay::TraceEvent rm;
  rm.nodes = {3};
  rm.row_hash = 0x0123456789abcdefULL;
  replay::TraceEvent rmb = rm;
  rmb.kind = replay::EventKind::kBatch;
  rmb.nodes = {4, 5};
  replay::TraceEvent join = rm;
  join.kind = replay::EventKind::kJoin;
  join.nodes = {1, 2};
  join.joined = 9;
  replay::TraceEvent phase;
  phase.kind = replay::EventKind::kPhase;
  phase.phase = "churn:0.5,0.5x4";
  replay::TraceFooter footer;
  footer.events = 1;
  footer.row_hash = 0xfedcba9876543210ULL;
  std::vector<std::string> lines;
  for (const replay::TraceEvent& e : {rm, rmb, join, phase}) {
    lines.push_back(replay::event_line(e));
  }
  lines.push_back(replay::footer_line(footer));
  for (const std::string& line : lines) {
    for (std::size_t cut = 1; cut < line.size(); ++cut) {
      std::istringstream in(header + "\n" + line.substr(0, cut) + "\n" +
                            replay::event_line(phase) + "\n");
      EXPECT_THROW(replay::load_trace(in), replay::TraceError)
          << line.substr(0, cut);
    }
  }

  // Shard record around a real rendered group.
  const exp::ShardRecord record{
      3, "00000000000000aa",
      api::bench_group({{"n", "16"}, {"healer", "DASH"}}, {api::Metrics{}})};
  const std::string shard = exp::shard_line(record);
  exp::ShardRecord parsed;
  ASSERT_TRUE(exp::parse_shard_line(shard, &parsed));
  for (std::size_t cut = 0; cut < shard.size(); ++cut) {
    EXPECT_FALSE(exp::parse_shard_line(shard.substr(0, cut), &parsed))
        << shard.substr(0, cut);
  }
}

}  // namespace
}  // namespace dash::util
