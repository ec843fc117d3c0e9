// Trace format tests: writer/loader inversion, crash tolerance
// (truncated final lines), version gating, and interior-corruption
// detection -- the robustness contract of replay/trace.h.
#include "replay/trace.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "api/scenario.h"
#include "exp/spec.h"
#include "replay/recorder.h"
#include "util/hash.h"

namespace dash::replay {
namespace {

/// A small real recording (BA graph, paper churn) as text.
std::string record_small(std::uint64_t seed = 7) {
  RecordConfig cfg;
  cfg.make_graph = exp::make_family("ba", 32, 2);
  cfg.scenario = api::Scenario::parse("paper-churn");
  cfg.seed = seed;
  std::ostringstream os;
  record_scenario(cfg, os);
  return os.str();
}

Trace load_text(const std::string& text) {
  std::istringstream in(text);
  return load_trace(in);
}

std::string dump(const Trace& t) {
  std::ostringstream os;
  write_trace(os, t);
  return os.str();
}

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

std::string join_lines(const std::vector<std::string>& lines) {
  std::string out;
  for (const std::string& line : lines) {
    out += line;
    out += '\n';
  }
  return out;
}

TEST(TraceFormat, WriterLoaderRoundTripIsByteIdentical) {
  const std::string text = record_small();
  const Trace t = load_text(text);
  EXPECT_TRUE(t.complete());
  EXPECT_EQ(t.version, kTraceVersion);
  EXPECT_EQ(t.healer, "dash");
  EXPECT_EQ(t.seed, 7u);
  EXPECT_EQ(t.footer->events, t.applied_events());
  EXPECT_EQ(dump(t), text);
}

TEST(TraceFormat, SnapshotsReconstruct) {
  const Trace t = load_text(record_small());
  const graph::Graph g = t.build_graph();
  EXPECT_EQ(g.num_nodes(), 32u);
  const core::HealingState state = t.build_state();
  EXPECT_EQ(state.num_nodes(), 32u);
}

TEST(TraceFormat, TruncatedFooterLoadsIncomplete) {
  const std::string text = record_small();
  const Trace full = load_text(text);
  // Chop the footer line in half: the loader must drop it and report
  // the trace as incomplete, keeping every event.
  const std::size_t cut = text.rfind("{\"e\":\"end\"");
  ASSERT_NE(cut, std::string::npos);
  const Trace t = load_text(text.substr(0, cut + 12));
  EXPECT_FALSE(t.complete());
  EXPECT_EQ(t.events.size(), full.events.size());
}

TEST(TraceFormat, TruncatedFinalEventIsDropped) {
  const std::string text = record_small();
  const Trace full = load_text(text);
  auto lines = lines_of(text);
  lines.pop_back();  // footer
  ASSERT_GE(lines.size(), 3u);
  lines.back() = lines.back().substr(0, lines.back().size() / 2);
  const Trace t = load_text(join_lines(lines));
  EXPECT_FALSE(t.complete());
  EXPECT_EQ(t.events.size(), full.events.size() - 1);
}

TEST(TraceFormat, VersionMismatchIsANamedError) {
  std::string text = record_small();
  const std::string magic = "{\"trace\":\"dash-replay\",\"v\":1,";
  ASSERT_EQ(text.compare(0, magic.size(), magic), 0);
  text.replace(magic.size() - 2, 1, "9");
  try {
    load_text(text);
    FAIL() << "expected VersionMismatchError";
  } catch (const VersionMismatchError& e) {
    EXPECT_EQ(e.recorded_version(), 9);
  }
}

TEST(TraceFormat, CorruptInteriorLineThrows) {
  auto lines = lines_of(record_small());
  ASSERT_GE(lines.size(), 4u);
  lines[2] = "{\"e\":\"garbage\"}";
  EXPECT_THROW(load_text(join_lines(lines)), TraceError);
}

TEST(TraceFormat, FooterBeforeLastLineThrows) {
  auto lines = lines_of(record_small());
  ASSERT_GE(lines.size(), 4u);
  std::swap(lines[lines.size() - 1], lines[lines.size() - 2]);
  EXPECT_THROW(load_text(join_lines(lines)), TraceError);
}

TEST(TraceFormat, FooterEventCountMismatchThrows) {
  Trace t = load_text(record_small());
  t.footer->events += 1;
  EXPECT_THROW(load_text(dump(t)), TraceError);
}

TEST(TraceFormat, MissingHeaderThrows) {
  EXPECT_THROW(load_text("{\"e\":\"rm\",\"n\":[3],\"h\":\"0000000000000000\"}\n"),
               TraceError);
  std::istringstream empty("");
  EXPECT_THROW(load_trace(empty), TraceError);
}

TEST(TraceFormat, HeaderStringsEscapeRoundTrip) {
  Trace t;
  t.healer = "weird\"healer\\with\nescapes\tand\x01control";
  t.scenario = "spec\r\nwith newlines";
  t.seed = 42;
  t.graph_text = "line one\nline \"two\"\n";
  t.state_text = "a\tb\\c\n";
  const Trace back = load_text(dump(t));
  EXPECT_EQ(back.healer, t.healer);
  EXPECT_EQ(back.scenario, t.scenario);
  EXPECT_EQ(back.seed, t.seed);
  EXPECT_EQ(back.graph_text, t.graph_text);
  EXPECT_EQ(back.state_text, t.state_text);
  EXPECT_FALSE(back.complete());
  EXPECT_TRUE(back.events.empty());
}

TEST(TraceFormat, EventLinesRoundTripEveryKind) {
  Trace t;
  t.healer = "dash";
  TraceEvent rm;
  rm.kind = EventKind::kRemove;
  rm.nodes = {5};
  rm.row_hash = 0xdeadbeefcafef00dULL;
  TraceEvent rmb;
  rmb.kind = EventKind::kBatch;
  rmb.nodes = {1, 2, 3};
  rmb.row_hash = 1;
  TraceEvent join;
  join.kind = EventKind::kJoin;
  join.nodes = {4, 9};
  join.joined = 32;
  join.row_hash = 2;
  TraceEvent phase;
  phase.kind = EventKind::kPhase;
  phase.phase = "targeted:maxdeg";
  t.events = {rm, rmb, join, phase};
  const Trace back = load_text(dump(t));
  ASSERT_EQ(back.events.size(), 4u);
  EXPECT_EQ(back.events[0].kind, EventKind::kRemove);
  EXPECT_EQ(back.events[0].nodes, std::vector<graph::NodeId>{5});
  EXPECT_EQ(back.events[0].row_hash, rm.row_hash);
  EXPECT_EQ(back.events[1].kind, EventKind::kBatch);
  EXPECT_EQ(back.events[1].nodes, (std::vector<graph::NodeId>{1, 2, 3}));
  EXPECT_EQ(back.events[2].kind, EventKind::kJoin);
  EXPECT_EQ(back.events[2].joined, 32u);
  EXPECT_EQ(back.events[3].kind, EventKind::kPhase);
  EXPECT_EQ(back.events[3].phase, "targeted:maxdeg");
  EXPECT_EQ(back.applied_events(), 3u);
}

TEST(TraceFormat, DigestMixIsFnv1aOverLittleEndianBytes) {
  // Fixed forever by the format version: folding a u64 is FNV-1a over
  // its 8 little-endian bytes.
  EXPECT_EQ(digest_mix(kDigestSeed, 0), util::fnv1a64(std::string(8, '\0')));
  EXPECT_EQ(digest_mix(kDigestSeed, 0x0807060504030201ULL),
            util::fnv1a64("\x01\x02\x03\x04\x05\x06\x07\x08"));
  EXPECT_NE(digest_mix(kDigestSeed, 0), digest_mix(kDigestSeed, 1));
}

TEST(TraceFormat, NodeIdsAboveUint32AreCorrupt) {
  // 2^32 + 3 once loaded as node 3.
  Trace t;
  t.healer = "dash";
  TraceEvent rm;
  rm.nodes = {3};
  TraceEvent join;
  join.kind = EventKind::kJoin;
  join.nodes = {1};
  join.joined = 3;
  t.events = {rm, join, rm};
  const std::string text = dump(t);
  ASSERT_EQ(load_text(text).events.size(), 3u);
  for (const auto& [from, to] :
       {std::pair<std::string, std::string>{"[3]", "[4294967299]"},
        {"\"id\":3", "\"id\":4294967299"}}) {
    std::string wide = text;
    wide.replace(wide.find(from), from.size(), to);
    EXPECT_THROW(load_text(wide), TraceError) << to;
  }
}

}  // namespace
}  // namespace dash::replay
