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
#include "graph/io.h"
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

/// One played spec under `healer`, with the invariant observer attached,
/// as a line: one FNV-1a digest over the digests of its rows, its JSON
/// summary, the healing state's checkpoint bytes (which read E' list by
/// list, in insertion order) and the final edge list, then the
/// observer's verdict.
std::string every_healer_line(const std::string& spec,
                              const std::string& healer) {
  std::ostringstream rows, doc, edges;
  CsvStreamSink csv(rows);
  JsonSummarySink json(doc);
  json.begin_group({{"scenario", spec}, {"healer", healer}});
  InvariantObserver invariants;
  auto net = make_net(48, 31, healer);
  net.add_observer(&invariants);
  net.add_observer(std::make_unique<SinkObserver>(csv));
  net.add_observer(std::make_unique<SinkObserver>(json));
  net.play(Scenario::parse(spec), 31);
  csv.flush();
  json.flush();
  graph::write_edge_list(edges, net.graph());
  std::string digests;
  for (const std::string& bytes :
       {rows.str(), doc.str(), dash::testing::save_bytes(net.state()),
        edges.str()}) {
    digests += util::hex16(util::fnv1a64(bytes));
  }
  return healer + " " + spec + " " + util::hex16(util::fnv1a64(digests)) +
         (invariants.ok() ? " ok" : " " + invariants.violation());
}

TEST(ScenarioGolden, EveryHealerMatchesRecordedHashes) {
  // Every registered healer shape over every phase type: the edges each
  // heal adds, their E' order, the ids and the counters must keep these
  // lines.
  std::vector<std::string> got;
  for (const char* healer : {"dash", "sdash", "sdash:3", "graph", "line",
                             "binarytree", "capped:2", "none"}) {
    for (const char* spec : dash::testing::kEveryPhaseType) {
      got.push_back(every_healer_line(spec, healer));
    }
  }
  const std::vector<std::string> want = {
      "dash strike:randomx30 7acf649ecf639025 ok",
      "dash batch:4,randomx4;batch:3,hubsx2 dcdee70d9b2e262e ok",
      "dash churn:0.4,0.4x80 88aaab4380f87797 ok",
      "dash targeted:maxnodex30 7408e570ce76d282 ok",
      "dash until:12,random 3caf3d34b98c12da ok",
      "dash repeat:3{strike:randomx5;churn:0.3,0.2x10} a524a2a734d1496f ok",
      "dash floor:16;targeted:maxnode ac03a9bcf1223c02 ok",
      "dash untilfrac:0.5,neighborofmax 6f127098dfacbc9d ok",
      "dash join:2x10;strike:randomx20 b7a314424ef68d80 ok",
      "dash ramp:0.1,0.5,0.5,0.1x60 10fac0962bb37819 ok",
      "dash mix:2{strike:random},1{join:2}x40 fcef7f5cf04631b6 ok",
      "sdash strike:randomx30 da8a5196c56ed30d ok",
      "sdash batch:4,randomx4;batch:3,hubsx2 76545cdf2059a2eb ok",
      "sdash churn:0.4,0.4x80 59d2733f83c3ac3f ok",
      "sdash targeted:maxnodex30 8bde6aea6c8dc862 ok",
      "sdash until:12,random 43a36e7cae576dd7 ok",
      "sdash repeat:3{strike:randomx5;churn:0.3,0.2x10} 87fb4efd425b47b7 ok",
      "sdash floor:16;targeted:maxnode a0d6b07a321f28a5 ok",
      "sdash untilfrac:0.5,neighborofmax c792c50dd7a78720 ok",
      "sdash join:2x10;strike:randomx20 abf121d117a1005a ok",
      "sdash ramp:0.1,0.5,0.5,0.1x60 23c02cbd89cbae59 ok",
      "sdash mix:2{strike:random},1{join:2}x40 7b62acd393305858 ok",
      "sdash:3 strike:randomx30 69db409ea1e9cc55 ok",
      "sdash:3 batch:4,randomx4;batch:3,hubsx2 f8c9c5570c7ecfbd ok",
      "sdash:3 churn:0.4,0.4x80 bb6cf21931110a29 ok",
      "sdash:3 targeted:maxnodex30 94a2ad71ae537c5e ok",
      "sdash:3 until:12,random c8155841468eb604 ok",
      "sdash:3 repeat:3{strike:randomx5;churn:0.3,0.2x10} 7f80aedbebff3661 ok",
      "sdash:3 floor:16;targeted:maxnode d58f9378b159c5b5 ok",
      "sdash:3 untilfrac:0.5,neighborofmax 6496d9c57dfc5911 ok",
      "sdash:3 join:2x10;strike:randomx20 a23f816a62f365d3 ok",
      "sdash:3 ramp:0.1,0.5,0.5,0.1x60 3bef9307e3986145 ok",
      "sdash:3 mix:2{strike:random},1{join:2}x40 f1ebf6f4beda7f7f ok",
      "graph strike:randomx30 5623640684620911 ok",
      "graph batch:4,randomx4;batch:3,hubsx2 76e968b70a9f2f83 ok",
      "graph churn:0.4,0.4x80 4f6f37069f15da70 ok",
      "graph targeted:maxnodex30 1771abc3d9498836 ok",
      "graph until:12,random b22102becdb132ea ok",
      "graph repeat:3{strike:randomx5;churn:0.3,0.2x10} dc1c97380a61167e ok",
      "graph floor:16;targeted:maxnode 92504bb1897a00de ok",
      "graph untilfrac:0.5,neighborofmax 38d2cbfaf0ab851e ok",
      "graph join:2x10;strike:randomx20 be5a08ba67515699 ok",
      "graph ramp:0.1,0.5,0.5,0.1x60 9bc8520d1c798342 ok",
      "graph mix:2{strike:random},1{join:2}x40 d464bb06973bd0bb ok",
      "line strike:randomx30 6def21396565799c ok",
      "line batch:4,randomx4;batch:3,hubsx2 ad6453d9f4ddc5dc ok",
      "line churn:0.4,0.4x80 bcd01622dcdb92c0 ok",
      "line targeted:maxnodex30 60d57b4331255860 ok",
      "line until:12,random b1719263cf37fa2e ok",
      "line repeat:3{strike:randomx5;churn:0.3,0.2x10} 8208de7326b3049d ok",
      "line floor:16;targeted:maxnode 6257b746a477c270 ok",
      "line untilfrac:0.5,neighborofmax 570f7cb65150b92d ok",
      "line join:2x10;strike:randomx20 144e24a49131891c ok",
      "line ramp:0.1,0.5,0.5,0.1x60 2555607d6676cce9 ok",
      "line mix:2{strike:random},1{join:2}x40 85ac0a2666130613 ok",
      "binarytree strike:randomx30 ee461e547cd8b12d ok",
      "binarytree batch:4,randomx4;batch:3,hubsx2 401e008ec7550dfe ok",
      "binarytree churn:0.4,0.4x80 eacc1f6c47f3cb88 ok",
      "binarytree targeted:maxnodex30 d6ab568063372c0e ok",
      "binarytree until:12,random 1ec41528ab2732f3 ok",
      "binarytree repeat:3{strike:randomx5;churn:0.3,0.2x10}"
      " b2c83d1b778d52a7 ok",
      "binarytree floor:16;targeted:maxnode e5737eda30dde061 ok",
      "binarytree untilfrac:0.5,neighborofmax fc86bb4d2c8516e4 ok",
      "binarytree join:2x10;strike:randomx20 7d80e078345d41bb ok",
      "binarytree ramp:0.1,0.5,0.5,0.1x60 27a1571ba8f84e02 ok",
      "binarytree mix:2{strike:random},1{join:2}x40 9d090e26b9acc36e ok",
      "capped:2 strike:randomx30 e3e11e6475d5f873 ok",
      "capped:2 batch:4,randomx4;batch:3,hubsx2 1b1ba5af5a9da73b ok",
      "capped:2 churn:0.4,0.4x80 980c0c6a8e983bec ok",
      "capped:2 targeted:maxnodex30 41a1fad9f730c8a5 ok",
      "capped:2 until:12,random c5677143f680e528 ok",
      "capped:2 repeat:3{strike:randomx5;churn:0.3,0.2x10} 0e83ea0b3e78b19c ok",
      "capped:2 floor:16;targeted:maxnode e166d848c494e64a ok",
      "capped:2 untilfrac:0.5,neighborofmax 297c9d97ebad8ac9 ok",
      "capped:2 join:2x10;strike:randomx20 6b5c88124c3903e5 ok",
      "capped:2 ramp:0.1,0.5,0.5,0.1x60 8b4501baf459c4ed ok",
      "capped:2 mix:2{strike:random},1{join:2}x40 2a5793371e565c52 ok",
      "none strike:randomx30"
      " d890045f10c2a22e network disconnected after round 12",
      "none batch:4,randomx4;batch:3,hubsx2 b61acf95837cfac3 ok",
      "none churn:0.4,0.4x80"
      " e701e05e8a1f213c network disconnected after round 6",
      "none targeted:maxnodex30"
      " 3832ff643d4352dd network disconnected after round 3",
      "none until:12,random"
      " 7ead4b8b661e34fd network disconnected after round 12",
      "none repeat:3{strike:randomx5;churn:0.3,0.2x10}"
      " b7294b77f775ea1c network disconnected after round 11",
      "none floor:16;targeted:maxnode"
      " 2a51af4ac1c2b500 network disconnected after round 3",
      "none untilfrac:0.5,neighborofmax"
      " 7c19fdccc688b47d network disconnected after round 8",
      "none join:2x10;strike:randomx20"
      " 8815343cb4e289a2 network disconnected after round 15",
      "none ramp:0.1,0.5,0.5,0.1x60"
      " d57fb22ccaf7abc8 network disconnected after round 6",
      "none mix:2{strike:random},1{join:2}x40"
      " 7c722571b9d99b9e network disconnected after round 22",
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
