// Record/replay round-trip tests: a recorded run re-executes
// bit-identically (metrics and sink bytes, sequential and parallel
// suites), divergence and drift are detected, lenient mode makes
// mutated traces executable, and failing traces shrink to minimal
// repros persisted via DASH_REPRO_DIR.
#include "replay/play.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "api/scenario.h"
#include "api/sink.h"
#include "api/suite.h"
#include "core/healing_state.h"
#include "exp/spec.h"
#include "graph/graph.h"
#include "replay/recorder.h"
#include "replay/shrink.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace dash::replay {
namespace {

RecordConfig small_config(std::uint64_t seed = 7) {
  RecordConfig cfg;
  cfg.make_graph = exp::make_family("ba", 32, 2);
  cfg.scenario = api::Scenario::parse("paper-churn");
  cfg.seed = seed;
  return cfg;
}

Trace record_and_load(const RecordConfig& cfg, api::Metrics* out = nullptr) {
  std::ostringstream os;
  const api::Metrics m = record_scenario(cfg, os);
  if (out != nullptr) *out = m;
  std::istringstream in(os.str());
  return load_trace(in);
}

/// Byte-render of a Metrics snapshot through the BENCH serializer --
/// equality of these strings is the bit-identity oracle for metrics.
std::string render(const api::Metrics& m) {
  std::ostringstream os;
  api::JsonSummarySink sink(os);
  sink.on_run(0, m);
  sink.flush();
  return os.str();
}

/// Byte-render of rows exactly as CsvStreamSink would write them.
std::string render_rows(const std::vector<api::RoundRow>& rows) {
  std::string out;
  for (const api::RoundRow& row : rows) {
    api::append_round_row(out, row);
    out += '\n';
  }
  return out;
}

std::size_t find_event(const Trace& t, EventKind kind,
                       std::size_t from = 0) {
  for (std::size_t i = from; i < t.events.size(); ++i) {
    if (t.events[i].kind == kind) return i;
  }
  return static_cast<std::size_t>(-1);
}

TEST(Replay, RecordedRunReplaysBitIdentically) {
  api::Metrics recorded;
  const Trace t = record_and_load(small_config(), &recorded);
  ASSERT_TRUE(t.complete());
  const ReplayResult r = play_trace(t);
  EXPECT_TRUE(r.ok()) << r.failure();
  EXPECT_EQ(r.diverged_at, -1);
  EXPECT_TRUE(r.metrics_match);
  EXPECT_EQ(r.applied, t.applied_events());
  EXPECT_EQ(r.skipped, 0u);
  EXPECT_EQ(r.engine, t.footer->metrics);
  EXPECT_EQ(render(r.metrics), render(recorded));
}

// The acceptance core: one suite instance, run inside a sequential and
// a parallel suite, re-recorded standalone from its reproduced RNG
// stream, then replayed -- metrics and sink bytes all byte-identical.
TEST(Replay, SuiteInstanceRoundTripsThroughTrace) {
  constexpr std::size_t kInstance = 1;
  constexpr std::uint64_t kBaseSeed = 21;

  api::SuiteConfig cfg;
  cfg.make_graph = exp::make_family("ba", 32, 2);
  cfg.make_healer = api::healer_factory("dash");
  cfg.scenario = api::Scenario::parse("paper-churn");
  cfg.instances = 3;
  cfg.base_seed = kBaseSeed;
  cfg.record_rows = true;

  api::MemorySink seq_sink;
  cfg.sinks = {&seq_sink};
  const std::vector<api::Metrics> seq = api::run_suite(cfg);

  api::MemorySink par_sink;
  cfg.sinks = {&par_sink};
  util::ThreadPool pool(3);
  const std::vector<api::Metrics> par = api::run_suite(cfg, pool);

  ASSERT_EQ(render_rows(seq_sink.rows()), render_rows(par_sink.rows()));
  ASSERT_EQ(render(seq[kInstance]), render(par[kInstance]));

  // Re-record instance kInstance standalone by reproducing its stream
  // exactly as run_suite derives it.
  util::Rng seeder(kBaseSeed);
  util::Rng rng = seeder.fork(kInstance + 1);
  RecordConfig rcfg = small_config(kBaseSeed);
  std::ostringstream os;
  const api::Metrics recorded = record_scenario(rcfg, rng, os);
  EXPECT_EQ(render(recorded), render(seq[kInstance]));

  std::istringstream in(os.str());
  const Trace t = load_trace(in);

  // Replay with a SinkObserver wired like the suite's: the replayed
  // run must reproduce the instance's rows byte-for-byte.
  api::MemorySink replay_sink;
  ReplayOptions opt;
  opt.configure = [&](api::Network& net) {
    net.add_observer(std::make_unique<api::SinkObserver>(
        replay_sink, nullptr, kInstance));
  };
  const ReplayResult r = play_trace(t, opt);
  EXPECT_TRUE(r.ok()) << r.failure();
  EXPECT_EQ(render(r.metrics), render(seq[kInstance]));

  std::vector<api::RoundRow> instance_rows;
  for (const api::RoundRow& row : seq_sink.rows()) {
    if (row.instance == kInstance) instance_rows.push_back(row);
  }
  ASSERT_FALSE(instance_rows.empty());
  EXPECT_EQ(render_rows(replay_sink.rows()), render_rows(instance_rows));
}

TEST(Replay, HealerOverrideReplaysWithoutVerification) {
  const Trace t = record_and_load(small_config());
  ReplayOptions opt;
  opt.healer_override = "graph";
  const ReplayResult r = play_trace(t, opt);
  // A different healer heals differently but every recorded event is
  // still structurally applicable; verification is forced off.
  EXPECT_TRUE(r.ok()) << r.failure();
  EXPECT_EQ(r.applied, t.applied_events());
}

TEST(Replay, NoHealerViolatesInvariants) {
  const Trace t = record_and_load(small_config());
  ReplayOptions opt;
  opt.healer_override = "none";
  opt.check_invariants = true;
  const ReplayResult r = play_trace(t, opt);
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.violation.find("disconnected"), std::string::npos)
      << r.violation;
}

/// The message of the TraceError play_trace(t) throws ("" if none).
std::string replay_error(const Trace& t) {
  try {
    play_trace(t);
  } catch (const TraceError& e) {
    return e.what();
  }
  return {};
}

TEST(Replay, CorruptGraphSnapshotThrows) {
  // The graph snapshot lists node 1 dead twice: the edge-list reader
  // must name the line (it used to abort inside Graph::delete_node).
  Trace t = record_and_load(small_config());
  t.graph_text += "! 1\n! 1\n";
  const std::string error = replay_error(t);
  EXPECT_EQ(error.rfind("corrupt graph snapshot: edge list: line ", 0), 0u)
      << error;
  EXPECT_NE(error.find("dead node 1 is listed twice"), std::string::npos)
      << error;
}

TEST(Replay, CorruptStateSnapshotThrows) {
  const Trace recorded = record_and_load(small_config());
  // Node 0's forest list (empty at time 0) names an id past the 32
  // nodes: the load must refuse it before any walk indexes by it.
  Trace t = recorded;
  const std::size_t at = t.state_text.find("\n0\n");
  ASSERT_NE(at, std::string::npos);
  t.state_text.replace(at, 3, "\n1 77\n");
  EXPECT_NE(replay_error(t).find("forest_adj of node 0 names node 77"),
            std::string::npos)
      << replay_error(t);

  // A well-formed state for a different node count.
  Trace other = recorded;
  graph::Graph g3(3);
  util::Rng rng(1);
  std::ostringstream state3;
  core::HealingState(g3, rng).save(state3);
  other.state_text = state3.str();
  EXPECT_NE(replay_error(other).find("covers 3 nodes, graph snapshot 32"),
            std::string::npos)
      << replay_error(other);
}

TEST(Replay, DuplicatedRemoveThrowsStrictSkipsLenient) {
  Trace t = record_and_load(small_config());
  const std::size_t i = find_event(t, EventKind::kRemove);
  ASSERT_NE(i, static_cast<std::size_t>(-1));
  t.events.insert(t.events.begin() + static_cast<std::ptrdiff_t>(i),
                  t.events[i]);
  t.footer.reset();  // the counts no longer match
  EXPECT_THROW(play_trace(t), TraceError);

  ReplayOptions opt;
  opt.lenient = true;
  const ReplayResult r = play_trace(t, opt);
  EXPECT_TRUE(r.ok()) << r.failure();
  EXPECT_GE(r.skipped, 1u);
}

TEST(Replay, TamperedDigestPinsDivergence) {
  Trace t = record_and_load(small_config());
  const std::size_t i =
      find_event(t, EventKind::kRemove, t.events.size() / 2);
  ASSERT_NE(i, static_cast<std::size_t>(-1));
  t.events[i].row_hash ^= 1;
  const ReplayResult r = play_trace(t);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.diverged_at, static_cast<std::ptrdiff_t>(i));
  EXPECT_NE(r.failure().find("diverged"), std::string::npos)
      << r.failure();
}

TEST(Replay, JoinIdDriftThrowsStrict) {
  Trace t = record_and_load(small_config());
  const std::size_t i = find_event(t, EventKind::kJoin);
  ASSERT_NE(i, static_cast<std::size_t>(-1));
  t.events[i].joined += 1;
  EXPECT_THROW(play_trace(t), TraceError);
  ReplayOptions opt;
  opt.lenient = true;
  const ReplayResult r = play_trace(t, opt);
  EXPECT_TRUE(r.ok()) << r.failure();  // drift tolerated leniently
}

TEST(Replay, IncompleteTraceReplaysStrict) {
  Trace t = record_and_load(small_config());
  t.footer.reset();
  const ReplayResult r = play_trace(t);
  EXPECT_TRUE(r.ok()) << r.failure();
  EXPECT_EQ(r.applied, t.applied_events());
}

// The ISSUE acceptance bar: a deliberately broken invariant (replaying
// a healed run with healing off) shrinks to <= 10% of the original
// trace's events while still reproducing.
TEST(Replay, ShrinkFindsMinimalFailingTrace) {
  const Trace t = record_and_load(small_config());
  const TraceOracle still_fails = [](const Trace& candidate) {
    ReplayOptions opt;
    opt.healer_override = "none";
    opt.lenient = true;
    opt.check_invariants = true;
    return !play_trace(candidate, opt).violation.empty();
  };
  ASSERT_TRUE(still_fails(t));
  ShrinkStats stats;
  const Trace shrunk = shrink_trace(t, still_fails, &stats);
  EXPECT_TRUE(still_fails(shrunk));
  EXPECT_EQ(stats.original_events, t.events.size());
  EXPECT_EQ(stats.shrunk_events, shrunk.events.size());
  EXPECT_GT(stats.oracle_calls, 0u);
  EXPECT_LE(shrunk.events.size() * 10, t.events.size())
      << "shrunk to " << shrunk.events.size() << " of "
      << t.events.size() << " events";
  EXPECT_FALSE(shrunk.complete());
}

TEST(Replay, ShrinkRejectsPassingTrace) {
  const Trace t = record_and_load(small_config());
  EXPECT_THROW(
      shrink_trace(t, [](const Trace&) { return false; }),
      TraceError);
}

TEST(Replay, WriteReproHonorsEnvDirAndReproduces) {
  const std::string dir = ::testing::TempDir() + "dash_repro_env_test";
  ::setenv("DASH_REPRO_DIR", dir.c_str(), 1);
  EXPECT_EQ(repro_dir(), dir);
  EXPECT_EQ(repro_dir("explicit"), "explicit");  // explicit wins

  Trace t = record_and_load(small_config());
  t.healer = "none";  // repro replays standalone under the failing healer
  t.footer.reset();
  const std::string path = write_repro(t, "deliberate test failure");
  ::unsetenv("DASH_REPRO_DIR");
  EXPECT_EQ(path.rfind(dir, 0), 0u) << path;

  const Trace back = load_trace_file(path);
  EXPECT_EQ(back.healer, "none");
  ReplayOptions opt;
  opt.lenient = true;
  opt.check_invariants = true;
  EXPECT_FALSE(play_trace(back, opt).ok());

  std::ifstream why(path + ".reason.txt");
  ASSERT_TRUE(why.good());
  std::string reason;
  std::getline(why, reason);
  EXPECT_EQ(reason, "deliberate test failure");
}

}  // namespace
}  // namespace dash::replay
