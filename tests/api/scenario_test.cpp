// scenario_test.cpp -- the declarative scenario layer: spec parsing
// (round-trip, malformed inputs, registry errors), phase execution
// semantics under Network::play, and sequential-vs-parallel
// determinism of the scenario-driven run_suite.
#include "api/scenario.h"

#include <gtest/gtest.h>

#include <memory>
#include <sstream>

#include "api/api.h"
#include "graph/generators.h"
#include "test_helpers.h"
#include "util/hash.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace dash::api {
namespace {

using dash::util::Rng;
using graph::Graph;
using graph::NodeId;

Network make_net(std::size_t n, std::uint64_t seed,
                 const std::string& healer = "dash") {
  Rng rng(seed);
  Graph g = graph::barabasi_albert(n, 2, rng);
  return Network(std::move(g), core::make_strategy(healer), rng);
}

std::string what_of(const std::string& spec) {
  try {
    Scenario::parse(spec);
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  ADD_FAILURE() << "spec '" << spec << "' unexpectedly parsed";
  return "";
}

// ---- parsing: canonical forms and round trips ------------------------

TEST(ScenarioParse, IssueExampleRoundTrips) {
  const auto sc = Scenario::parse("churn:0.3,0.1x500;batch:8x50");
  EXPECT_EQ(sc.size(), 2u);
  EXPECT_EQ(sc.spec(), "churn:0.3,0.1x500;batch:8,hubsx50");
  // The canonical form is a fixed point of parse().
  EXPECT_EQ(Scenario::parse(sc.spec()).spec(), sc.spec());
}

TEST(ScenarioParse, EveryPhaseKindRoundTrips) {
  const std::string canon =
      "strike:maxnodex5;batch:4,randomx3;churn:0.5,0.25,3x10;"
      "targeted:neighborofmaxx7;until:16,maxnode;"
      "repeat:2{strike:randomx1;floor:4};floor:2";
  const auto sc = Scenario::parse(canon);
  EXPECT_EQ(sc.spec(), canon);
  EXPECT_EQ(Scenario::parse(sc.spec()).spec(), canon);
}

TEST(ScenarioParse, ShorthandsNormalize) {
  EXPECT_EQ(Scenario::parse("strike").spec(), "strike:maxnodex1");
  EXPECT_EQ(Scenario::parse("strike:40").spec(), "strike:maxnodex40");
  EXPECT_EQ(Scenario::parse("strike:randomx3").spec(), "strike:randomx3");
  EXPECT_EQ(Scenario::parse("targeted").spec(), "targeted:maxnode");
  EXPECT_EQ(Scenario::parse("batch:8").spec(), "batch:8,hubs");
  EXPECT_EQ(Scenario::parse("until:10").spec(), "until:10,maxnode");
  // Aliases and case-insensitive names resolve to the same phases.
  EXPECT_EQ(Scenario::parse("DELETE:3").spec(), "strike:maxnodex3");
  EXPECT_EQ(Scenario::parse("batch_strike:2x1").spec(), "batch:2,hubsx1");
  EXPECT_EQ(Scenario::parse("run:maxnode").spec(), "targeted:maxnode");
}

TEST(ScenarioParse, ScenarioIsACopyableValue) {
  const auto a = Scenario::parse("strike:3;churn:1,0x2");
  Scenario b = a;
  b.add(Scenario::parse("strike:randomx1").phases().front());
  EXPECT_EQ(a.size(), 2u);
  EXPECT_EQ(b.size(), 3u);
  EXPECT_EQ(a.spec(), "strike:maxnodex3;churn:1,0x2");
}

// ---- parsing: malformed specs ---------------------------------------

TEST(ScenarioParse, EmptyPhasesAreRejected) {
  EXPECT_THROW(Scenario::parse(""), std::invalid_argument);
  EXPECT_THROW(Scenario::parse("strike;;strike"), std::invalid_argument);
  EXPECT_THROW(Scenario::parse(";strike"), std::invalid_argument);
  EXPECT_THROW(Scenario::parse("strike:"), std::invalid_argument);
}

TEST(ScenarioParse, ZeroCountsAreRejected) {
  EXPECT_THROW(Scenario::parse("strike:0"), std::invalid_argument);
  EXPECT_THROW(Scenario::parse("strike:maxnodex0"), std::invalid_argument);
  EXPECT_THROW(Scenario::parse("batch:0"), std::invalid_argument);
  EXPECT_THROW(Scenario::parse("batch:4x0"), std::invalid_argument);
  EXPECT_THROW(Scenario::parse("churn:0.5,0.5x0"), std::invalid_argument);
  EXPECT_THROW(Scenario::parse("repeat:0{strike}"), std::invalid_argument);
  EXPECT_THROW(Scenario::parse("until:0"), std::invalid_argument);
  EXPECT_THROW(Scenario::parse("floor:0"), std::invalid_argument);
}

TEST(ScenarioParse, UnknownPhaseListsRegisteredSpellings) {
  const std::string msg = what_of("shake:3");
  for (const char* expected :
       {"strike", "batch", "churn", "targeted", "until", "repeat",
        "floor"}) {
    EXPECT_NE(msg.find(expected), std::string::npos)
        << "error should list '" << expected << "': " << msg;
  }
}

TEST(ScenarioParse, ChurnValidatesRatesAndCount) {
  EXPECT_THROW(Scenario::parse("churn:0.5,0.5"), std::invalid_argument);
  EXPECT_THROW(Scenario::parse("churn:1.5,0x3"), std::invalid_argument);
  EXPECT_THROW(Scenario::parse("churn:-0.1,0x3"), std::invalid_argument);
  EXPECT_THROW(Scenario::parse("churn:abc,0x3"), std::invalid_argument);
  EXPECT_THROW(Scenario::parse("churn:0.5x3"), std::invalid_argument);
  EXPECT_THROW(Scenario::parse("churn:0.5,0.5,0x3"),
               std::invalid_argument);
}

TEST(ScenarioParse, UnknownAttackNamesFailAtParseTime) {
  // Attack specs resolve through attack_registry() when a phase runs,
  // but the spelling is validated when the scenario is built so the
  // error surfaces where the spec was written.
  EXPECT_THROW(Scenario::parse("targeted:nosuchattack"),
               std::invalid_argument);
  EXPECT_THROW(Scenario::parse("strike:nosuchattackx3"),
               std::invalid_argument);
  EXPECT_THROW(Scenario::parse("strike:40x5"),  // "40" is not an attack
               std::invalid_argument);
  EXPECT_THROW(Scenario::parse("until:5,nosuchattack"),
               std::invalid_argument);
  const std::string msg = what_of("targeted:nosuchattack");
  EXPECT_NE(msg.find("maxnode"), std::string::npos) << msg;
}

TEST(ScenarioParse, MalformedStructuresAreRejected) {
  EXPECT_THROW(Scenario::parse("batch:4,sideways"), std::invalid_argument);
  EXPECT_THROW(Scenario::parse("repeat:2{strike"), std::invalid_argument);
  EXPECT_THROW(Scenario::parse("repeat:2strike}"), std::invalid_argument);
  EXPECT_THROW(Scenario::parse("until:many"), std::invalid_argument);
  EXPECT_THROW(Scenario::parse("floor:two"), std::invalid_argument);
}

// ---- join / ramp / mix (the hunt alphabet) ---------------------------

TEST(ScenarioParse, JoinRampMixRoundTrip) {
  // join: attach defaults to 2, count to 1.
  EXPECT_EQ(Scenario::parse("join").spec(), "join:2x1");
  EXPECT_EQ(Scenario::parse("join:4x15").spec(), "join:4x15");
  // ramp: attach elided from the canonical form when it is the default.
  EXPECT_EQ(Scenario::parse("ramp:0,0.5,1,0x10").spec(),
            "ramp:0,0.5,1,0x10");
  EXPECT_EQ(Scenario::parse("ramp:0.3,0.1,0.3,0.1,3x5").spec(),
            "ramp:0.3,0.1,0.3,0.1,3x5");
  EXPECT_EQ(Scenario::parse("ramp:0,0,1,1,2x8").spec(), "ramp:0,0,1,1x8");
  // mix: weighted arms round-trip with their arm bodies canonicalized.
  const std::string mix = "mix:2{strike:maxnodex1},1{churn:0.5,0.5x3}x4";
  EXPECT_EQ(Scenario::parse(mix).spec(), mix);
  EXPECT_EQ(Scenario::parse(Scenario::parse(mix).spec()).spec(), mix);
}

TEST(ScenarioParse, JoinRampMixRejectMalformed) {
  EXPECT_THROW(Scenario::parse("join:0x3"), std::invalid_argument);
  // ramp and mix both require an explicit xN event/draw count.
  EXPECT_THROW(Scenario::parse("ramp:0,0.5,1,0"), std::invalid_argument);
  EXPECT_THROW(Scenario::parse("mix:1{strike:maxnodex1}"),
               std::invalid_argument);
  EXPECT_THROW(Scenario::parse("ramp:0,0.5x10"), std::invalid_argument);
  EXPECT_THROW(Scenario::parse("ramp:0,2,1,0x10"), std::invalid_argument);
  EXPECT_THROW(Scenario::parse("mix:0{strike:maxnodex1}x2"),
               std::invalid_argument);
  EXPECT_THROW(Scenario::parse("mix:1{}x2"), std::invalid_argument);
}

TEST(ScenarioPlay, JoinGrowsTheNetwork) {
  auto net = make_net(16, 9);
  const auto m = net.play(Scenario::parse("join:3x10"), 9);
  EXPECT_EQ(m.joins, 10u);
  EXPECT_EQ(net.graph().num_alive(), 26u);
}

TEST(ScenarioPlay, RampWithFlatRatesMatchesChurn) {
  // Equal start/end rates consume the same coin stream as the
  // equivalent churn phase, event for event.
  auto a = make_net(16, 10);
  const auto ma = a.play(Scenario::parse("ramp:1,1,1,1x10"), 10);
  auto b = make_net(16, 10);
  const auto mb = b.play(Scenario::parse("churn:1,1x10"), 10);
  EXPECT_EQ(ma.joins, mb.joins);
  EXPECT_EQ(ma.deletions, mb.deletions);
  EXPECT_EQ(ma.edges_added, mb.edges_added);
}

TEST(ScenarioPlay, RampInterpolatesRates) {
  auto net = make_net(32, 11);
  const auto m = net.play(Scenario::parse("ramp:0,0,1,1x21"), 11);
  // Rates climb 0 -> 1: the first tick never fires, the last always
  // does.
  EXPECT_GT(m.joins, 0u);
  EXPECT_GT(m.deletions, 0u);
  EXPECT_LT(m.joins, 21u);
}

TEST(ScenarioPlay, MixSingleArmRunsEveryDraw) {
  auto net = make_net(16, 12);
  const auto m = net.play(Scenario::parse("mix:1{join:2x1}x6"), 12);
  EXPECT_EQ(m.joins, 6u);
}

TEST(ScenarioPlay, MixDrawsAreSeedDeterministic) {
  const auto spec =
      Scenario::parse("mix:3{strike:maxnodex1},1{join:2x1}x8");
  auto a = make_net(32, 13);
  auto b = make_net(32, 13);
  const auto ma = a.play(spec, 13);
  const auto mb = b.play(spec, 13);
  EXPECT_EQ(ma.deletions, mb.deletions);
  EXPECT_EQ(ma.joins, mb.joins);
  // Every draw runs exactly one single-event arm.
  EXPECT_EQ(ma.deletions + ma.joins, 8u);
}

// ---- play semantics ---------------------------------------------------

TEST(ScenarioPlay, StrikeDeletesExactlyCount) {
  auto net = make_net(32, 1);
  const auto m = net.play(Scenario::parse("strike:5"), 1);
  EXPECT_EQ(m.deletions, 5u);
  EXPECT_EQ(net.graph().num_alive(), 27u);
}

TEST(ScenarioPlay, TargetedRunsToSingleNodeAndRespectsCap) {
  auto full = make_net(64, 2);
  const auto mf = full.play(Scenario::parse("targeted:neighborofmax"), 2);
  EXPECT_EQ(mf.deletions, 63u);
  EXPECT_TRUE(mf.stayed_connected);

  auto capped = make_net(64, 2);
  const auto mc =
      capped.play(Scenario::parse("targeted:neighborofmaxx7"), 2);
  EXPECT_EQ(mc.deletions, 7u);
}

TEST(ScenarioPlay, UntilLeavesExactlyN) {
  auto net = make_net(64, 3);
  net.play(Scenario::parse("until:10"), 3);
  EXPECT_EQ(net.graph().num_alive(), 10u);
}

TEST(ScenarioPlay, FloorStopsDeletions) {
  auto net = make_net(32, 4);
  const auto m = net.play(Scenario::parse("floor:20;targeted:maxnode"), 4);
  EXPECT_EQ(net.graph().num_alive(), 20u);
  EXPECT_EQ(m.deletions, 12u);
}

TEST(ScenarioPlay, BatchRoundsDeleteKPerRound) {
  auto net = make_net(48, 5);
  const auto m = net.play(Scenario::parse("batch:4x3"), 5);
  EXPECT_EQ(m.deletions, 12u);
  EXPECT_TRUE(m.stayed_connected);
}

TEST(ScenarioPlay, UnboundedBatchLeavesAtMostK) {
  auto net = make_net(33, 6);
  net.play(Scenario::parse("batch:8,random"), 6);
  // 33 -> 25 -> 17 -> 9; a further batch of 8 would leave 1 >= floor,
  // so it runs too.
  EXPECT_EQ(net.graph().num_alive(), 1u);
}

TEST(ScenarioPlay, ChurnFullRatesJoinAndLeaveEveryTick) {
  auto net = make_net(16, 7);
  const auto m = net.play(Scenario::parse("churn:1,1x10"), 7);
  EXPECT_EQ(m.joins, 10u);
  EXPECT_EQ(m.deletions, 10u);
  EXPECT_EQ(net.graph().num_alive(), 16u);
}

TEST(ScenarioPlay, RepeatMultipliesItsBody) {
  auto net = make_net(64, 8);
  const auto m =
      net.play(Scenario::parse("repeat:3{strike:2;churn:1,0x1}"), 8);
  EXPECT_EQ(m.deletions, 6u);
  EXPECT_EQ(m.joins, 3u);
}

TEST(ScenarioPlay, CustomAttackerFactoryDrivesTargetedPhase) {
  // A caller-owned adversary (the LevelAttack pattern) borrowed into
  // the scenario through a factory.
  class FirstAlive final : public attack::AttackStrategy {
   public:
    std::string name() const override { return "first-alive"; }
    NodeId select(const Graph& g, const core::HealingState&) override {
      ++selections;
      return g.alive_nodes().front();
    }
    int selections = 0;
  };

  FirstAlive atk;
  const auto sc = Scenario().targeted(
      [&atk](std::uint64_t) {
        return std::make_unique<attack::BorrowedAttack>(atk);
      },
      "first-alive", 4);
  EXPECT_EQ(sc.spec(), "targeted:<first-alive>x4");

  auto net = make_net(24, 9);
  const auto m = net.play(sc, 9);
  EXPECT_EQ(m.deletions, 4u);
  EXPECT_EQ(atk.selections, 4);
}

TEST(ScenarioPlay, StopConditionEndsThePlayMidPhase) {
  auto net = make_net(64, 15);
  PlayOptions opts;
  opts.stop_condition = [](const Network& engine) {
    return engine.graph().num_alive() <= 32;
  };
  const auto m =
      net.play(Scenario::parse("targeted:maxnode"), 15, opts);
  EXPECT_EQ(net.graph().num_alive(), 32u);
  EXPECT_EQ(m.deletions, 32u);
}

TEST(ScenarioPlay, SameSeedSameMetrics) {
  const auto sc = Scenario::parse("churn:0.6,0.4x40;batch:3x2;until:5");
  auto a = make_net(48, 10);
  auto b = make_net(48, 10);
  const auto ma = a.play(sc, 77);
  const auto mb = b.play(sc, 77);
  EXPECT_EQ(ma.deletions, mb.deletions);
  EXPECT_EQ(ma.joins, mb.joins);
  EXPECT_EQ(ma.max_delta, mb.max_delta);
  EXPECT_EQ(ma.edges_added, mb.edges_added);
  EXPECT_EQ(ma.max_messages, mb.max_messages);
}

// ---- suite determinism -------------------------------------------------

// ---- named presets and size-relative phases ---------------------------

TEST(ScenarioPresets, ParseAndRoundTripByName) {
  for (const char* name :
       {"paper-churn", "max-degree-attack", "until-half", "until-quarter"}) {
    const auto sc = Scenario::parse(name);
    EXPECT_EQ(sc.spec(), name);
    EXPECT_EQ(Scenario::parse(sc.spec()).spec(), name);
  }
}

TEST(ScenarioPresets, PresetPlaysIdenticallyToItsBody) {
  // "paper-churn" is sugar for its registered body: same seed, same
  // engine state, same metrics.
  auto preset_net = make_net(32, 7);
  const auto preset = preset_net.play(Scenario::parse("paper-churn"), 7);
  auto body_net = make_net(32, 7);
  const auto body = body_net.play(Scenario::parse("churn:0.3,0.1x500"), 7);
  EXPECT_EQ(preset.deletions, body.deletions);
  EXPECT_EQ(preset.joins, body.joins);
  EXPECT_EQ(preset.edges_added, body.edges_added);
  EXPECT_EQ(preset.max_delta, body.max_delta);
  EXPECT_EQ(preset_net.graph().num_alive(), body_net.graph().num_alive());
}

TEST(ScenarioPresets, PresetsTakeNoParameter) {
  EXPECT_THROW(Scenario::parse("paper-churn:3"), std::invalid_argument);
  EXPECT_THROW(Scenario::parse("until-half:0.2"), std::invalid_argument);
}

TEST(ScenarioPresets, UnknownPhaseErrorListsPresetSpellings) {
  const std::string msg = what_of("no-such-preset:1");
  EXPECT_NE(msg.find("paper-churn"), std::string::npos);
  EXPECT_NE(msg.find("until-quarter"), std::string::npos);
  EXPECT_NE(msg.find("churn"), std::string::npos);  // primitives too
}

TEST(ScenarioPlay, UntilFracIsSizeRelative) {
  const auto sc = Scenario::parse("untilfrac:0.25,maxnode");
  EXPECT_EQ(sc.spec(), "untilfrac:0.25,maxnode");
  for (const std::size_t n : {32u, 64u}) {
    auto net = make_net(n, 8);
    net.play(sc, 8);
    EXPECT_EQ(net.graph().num_alive(), n / 4) << "n=" << n;
  }
  // Odd sizes round the survivor count up (ceil).
  auto net = make_net(33, 8);
  net.play(Scenario::parse("untilfrac:0.5"), 8);
  EXPECT_EQ(net.graph().num_alive(), 17u);
}

TEST(ScenarioParse, UntilFracValidatesItsFraction) {
  EXPECT_THROW(Scenario::parse("untilfrac:0"), std::invalid_argument);
  EXPECT_THROW(Scenario::parse("untilfrac:1.5"), std::invalid_argument);
  EXPECT_THROW(Scenario::parse("untilfrac:"), std::invalid_argument);
  EXPECT_EQ(Scenario::parse("untilfrac:1").spec(), "untilfrac:1,maxnode");
}

// ---- golden: every phase type ----------------------------------------

/// One played spec as a line: FNV-1a of its CsvStreamSink rows and of
/// the JsonSummarySink document holding its one group.
std::string golden_line(const std::string& spec, const std::string& healer) {
  std::ostringstream rows, doc;
  CsvStreamSink csv(rows);
  JsonSummarySink json(doc);
  json.begin_group({{"scenario", spec}, {"healer", healer}});
  auto net = make_net(48, 31, healer);
  net.add_observer(std::make_unique<SinkObserver>(csv));
  net.add_observer(std::make_unique<SinkObserver>(json));
  net.play(Scenario::parse(spec), 31);
  csv.flush();
  json.flush();
  return healer + " " + spec + " rows " +
         util::hex16(util::fnv1a64(rows.str())) + " json " +
         util::hex16(util::fnv1a64(doc.str()));
}

TEST(ScenarioGolden, EveryPhaseTypeMatchesRecordedHashes) {
  // Every phase type under a forest healer and the naive one: a change
  // to how phases run must keep these lines; one that means to move a
  // draw or an event re-records them and says so.
  std::vector<std::string> got;
  for (const char* healer : {"dash", "graph"}) {
    for (const char* spec : dash::testing::kEveryPhaseType) {
      got.push_back(golden_line(spec, healer));
    }
  }
  const std::vector<std::string> want = {
      "dash strike:randomx30 rows ee40839bd746afe0 json 808c204b9005b2d5",
      "dash batch:4,randomx4;batch:3,hubsx2"
      " rows 94ecc6c7a391adf9 json 2d426259863f28b4",
      "dash churn:0.4,0.4x80 rows b4711e0124ec52cb json 98b513d958024764",
      "dash targeted:maxnodex30 rows 49bd1c8273c26569 json f681f8025fe40ea6",
      "dash until:12,random rows c3ade2e9364e2501 json 00516621263a77ac",
      "dash repeat:3{strike:randomx5;churn:0.3,0.2x10}"
      " rows d1113a714087a515 json f960d04324ec414c",
      "dash floor:16;targeted:maxnode"
      " rows 4607c6f4fe241419 json ab3396fabb253494",
      "dash untilfrac:0.5,neighborofmax"
      " rows 72601ade021520c4 json 3302b9041e4a3f4e",
      "dash join:2x10;strike:randomx20"
      " rows d7252e987110078c json e9d0a2c76b951f45",
      "dash ramp:0.1,0.5,0.5,0.1x60"
      " rows 1c78beaf5dcb7144 json 9f338b0567449381",
      "dash mix:2{strike:random},1{join:2}x40"
      " rows 8d9d8b22c4621272 json 2527eb4cf7f26bb3",
      "graph strike:randomx30 rows a3de5a6b2fd5d641 json 0b33f31f7e7d8000",
      "graph batch:4,randomx4;batch:3,hubsx2"
      " rows 94ecc6c7a391adf9 json 0b61f029b6a81d84",
      "graph churn:0.4,0.4x80 rows 81437747c966e96f json 63ff90131ad1a81b",
      "graph targeted:maxnodex30 rows eb065bc4101538ad json ad769674acc827b4",
      "graph until:12,random rows cffb4a732dd0fe98 json 92a84a6e60778d28",
      "graph repeat:3{strike:randomx5;churn:0.3,0.2x10}"
      " rows 33c9599a756a02d2 json bc72cc374d5ff55d",
      "graph floor:16;targeted:maxnode"
      " rows 07cf04f33fd81647 json 14af4485260cf504",
      "graph untilfrac:0.5,neighborofmax"
      " rows 0f5cf1b8e7afe370 json 050e7a91e09f1a0a",
      "graph join:2x10;strike:randomx20"
      " rows 6368cac7ca9b3acc json fa477f80d59f9bf1",
      "graph ramp:0.1,0.5,0.5,0.1x60"
      " rows 0b800f0b5c8667a5 json fa879a769cae0728",
      "graph mix:2{strike:random},1{join:2}x40"
      " rows e1f1ac55a18893c0 json fd802d4a83ab6c69",
  };
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) EXPECT_EQ(got[i], want[i]);
}

SuiteConfig churny_suite() {
  SuiteConfig cfg;
  cfg.make_graph = [](Rng& rng) {
    return graph::barabasi_albert(40, 2, rng);
  };
  cfg.make_healer = healer_factory("dash");
  cfg.scenario = Scenario::parse("churn:0.5,0.3x30;batch:3x2;until:8");
  cfg.instances = 8;
  cfg.base_seed = 0xFEED;
  return cfg;
}

TEST(RunSuite, SequentialAndParallelMetricsAreIdentical) {
  const auto cfg = churny_suite();
  const auto serial = run_suite(cfg);
  dash::util::ThreadPool pool(4);
  const auto parallel = run_suite(cfg, pool);

  ASSERT_EQ(serial.size(), 8u);
  ASSERT_EQ(parallel.size(), 8u);
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].deletions, parallel[i].deletions) << i;
    EXPECT_EQ(serial[i].joins, parallel[i].joins) << i;
    EXPECT_EQ(serial[i].max_delta, parallel[i].max_delta) << i;
    EXPECT_EQ(serial[i].max_id_changes, parallel[i].max_id_changes) << i;
    EXPECT_EQ(serial[i].max_messages, parallel[i].max_messages) << i;
    EXPECT_EQ(serial[i].max_messages_sent,
              parallel[i].max_messages_sent)
        << i;
    EXPECT_EQ(serial[i].edges_added, parallel[i].edges_added) << i;
    EXPECT_EQ(serial[i].surrogate_heals, parallel[i].surrogate_heals)
        << i;
    EXPECT_EQ(serial[i].max_stretch, parallel[i].max_stretch) << i;
    EXPECT_EQ(serial[i].stayed_connected, parallel[i].stayed_connected)
        << i;
    EXPECT_EQ(serial[i].violation, parallel[i].violation) << i;
  }
}

TEST(RunSuite, SequentialAndParallelSinkBytesAreIdentical) {
  // The acceptance bar: the full streamed output -- every row and
  // every run summary -- is byte-identical whatever the worker count.
  auto run_to_string = [](dash::util::ThreadPool* pool) {
    std::ostringstream out;
    CsvStreamSink csv(out);
    auto cfg = churny_suite();
    cfg.sinks.push_back(&csv);
    cfg.record_rows = true;
    if (pool != nullptr) {
      run_suite(cfg, *pool);
    } else {
      run_suite(cfg);
    }
    csv.flush();
    return out.str();
  };
  const std::string serial = run_to_string(nullptr);
  dash::util::ThreadPool pool(4);
  const std::string parallel = run_to_string(&pool);
  EXPECT_GT(serial.size(), 0u);
  EXPECT_EQ(serial, parallel);
}

TEST(RunSuite, DifferentSeedsDiffer) {
  auto cfg = churny_suite();
  cfg.instances = 4;
  cfg.base_seed = 1;
  const auto a = run_suite(cfg);
  cfg.base_seed = 2;
  const auto b = run_suite(cfg);
  bool any_diff = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    any_diff |= (a[i].edges_added != b[i].edges_added) ||
                (a[i].max_messages != b[i].max_messages);
  }
  EXPECT_TRUE(any_diff);
}

TEST(RunSuite, InspectSeesFinalStatesInOrder) {
  auto cfg = churny_suite();
  cfg.instances = 3;
  std::vector<std::size_t> order;
  cfg.inspect = [&order](std::size_t i, const Network& net,
                         const Metrics& m) {
    order.push_back(i);
    EXPECT_EQ(net.state().max_delta_ever(), m.max_delta);
    EXPECT_EQ(net.rounds(), m.deletions);
  };
  dash::util::ThreadPool pool(3);
  run_suite(cfg, pool);
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2}));
}

}  // namespace
}  // namespace dash::api
