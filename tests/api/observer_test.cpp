// observer_test.cpp -- the Observer pipeline: event delivery, the
// built-in measurement observers (invariants / stretch), lazy
// per-round connectivity, and their Metrics contributions at finish.
// Sink-fed output lives in sink_test.cpp.
#include "api/observers.h"

#include <gtest/gtest.h>

#include <memory>

#include "api/api.h"
#include "graph/generators.h"
#include "test_helpers.h"
#include "util/rng.h"

namespace dash::api {
namespace {

using dash::testing::play_attack;
using dash::util::Rng;
using graph::Graph;
using graph::NodeId;

Network make_net(std::size_t n, std::uint64_t seed,
                 const std::string& healer = "dash") {
  Rng rng(seed);
  Graph g = graph::barabasi_albert(n, 2, rng);
  return Network(std::move(g), core::make_strategy(healer), rng);
}

/// Counts every pipeline callback.
class CountingObserver final : public Observer {
 public:
  std::string name() const override { return "counting"; }
  void on_attach(const Network&) override { ++attached; }
  void on_round_begin(const Network&, std::size_t round) override {
    ++begins;
    last_begin_round = round;
  }
  void on_heal(const Network&, const RoundEvent& ev) override {
    ++heals;
    EXPECT_NE(ev.ctx, nullptr);
    EXPECT_NE(ev.action, nullptr);
  }
  void on_round_end(const Network&, const RoundEvent& ev) override {
    ++ends;
    last_end_round = ev.round;
  }
  void on_join(const Network&, const JoinEvent&) override { ++joins; }
  void on_finish(const Network&, Metrics&) override { ++finishes; }

  int attached = 0, begins = 0, heals = 0, ends = 0, joins = 0,
      finishes = 0;
  std::size_t last_begin_round = 0, last_end_round = 0;
};

TEST(ObserverPipeline, EventsFireOncePerRound) {
  auto net = make_net(32, 1);
  CountingObserver counter;
  net.add_observer(&counter);
  EXPECT_EQ(counter.attached, 1);

  auto atk = attack::make_attack("neighborofmax", 1);
  play_attack(net, *atk, 10);

  EXPECT_EQ(counter.begins, 10);
  EXPECT_EQ(counter.heals, 10);
  EXPECT_EQ(counter.ends, 10);
  EXPECT_EQ(counter.finishes, 1);
  EXPECT_EQ(counter.last_begin_round, 10u);
  EXPECT_EQ(counter.last_end_round, 10u);
}

TEST(ObserverPipeline, JoinAndBatchEventsFire) {
  Rng rng(2);
  Graph g = graph::barabasi_albert(32, 2, rng);
  Network net(std::move(g), core::make_strategy("dash"), rng);
  CountingObserver counter;
  net.add_observer(&counter);

  net.join({0, 5});
  EXPECT_EQ(counter.joins, 1);

  net.remove_batch({1, 2});
  // A batch round fires begin/end but no single-heal event, and both
  // callbacks carry the same round id (two deletions in the round).
  EXPECT_EQ(counter.begins, 1);
  EXPECT_EQ(counter.ends, 1);
  EXPECT_EQ(counter.heals, 0);
  EXPECT_EQ(counter.last_begin_round, 2u);
  EXPECT_EQ(counter.last_end_round, 2u);
}

TEST(ObserverPipeline, OwnedObserverSurvivesAndIsReachable) {
  auto net = make_net(24, 3);
  auto& inv = static_cast<InvariantObserver&>(
      net.add_observer(std::make_unique<InvariantObserver>()));
  auto atk = attack::make_attack("maxnode", 3);
  play_attack(net, *atk);
  EXPECT_TRUE(inv.ok()) << inv.violation();
}

TEST(InvariantObserver, CleanRunReportsNoViolation) {
  auto net = make_net(48, 4);
  InvariantObserver inv;
  net.add_observer(&inv);
  auto atk = attack::make_attack("neighborofmax", 4);
  const Metrics m = play_attack(net, *atk);
  EXPECT_TRUE(m.violation.empty()) << m.violation;
  EXPECT_TRUE(inv.ok());
}

TEST(InvariantObserver, SurfacesViolationForBadBound) {
  // GraphHeal with the DASH-only delta bound enabled blows past
  // 2 log2 n on a long NMS schedule at this size/seed; the observer
  // must surface the violation rather than crash (same workload the
  // old run_schedule flag test used).
  auto net = make_net(512, 5, "graph");
  InvariantOptions opts;
  opts.check_delta_bound = true;
  InvariantObserver inv(opts);
  net.add_observer(&inv);
  auto atk = attack::make_attack("neighborofmax", 5);
  const Metrics m = play_attack(net, *atk);
  EXPECT_FALSE(m.violation.empty());
  EXPECT_FALSE(inv.ok());
  EXPECT_EQ(m.violation, inv.violation());
}

TEST(InvariantObserver, RemBoundHoldsForDash) {
  auto net = make_net(64, 6);
  InvariantOptions opts;
  opts.check_rem_bound = true;
  opts.check_delta_bound = true;
  InvariantObserver inv(opts);
  net.add_observer(&inv);
  auto atk = attack::make_attack("neighborofmax", 6);
  const Metrics m = play_attack(net, *atk);
  EXPECT_TRUE(m.violation.empty()) << m.violation;
}

TEST(StretchObserver, TracksStretchDuringRun) {
  auto net = make_net(32, 7);
  StretchObserver stretch;
  net.add_observer(&stretch);
  auto atk = attack::make_attack("neighborofmax", 7);
  const Metrics m = play_attack(net, *atk, 8);
  EXPECT_GE(m.max_stretch, 1.0);
  EXPECT_EQ(m.max_stretch, stretch.max_stretch());
}

TEST(StretchObserver, ZeroSampleEveryIsClampedToOne) {
  // Regression: the old schedule runner computed
  // `deletions % stretch_sample_every` and crashed with SIGFPE when the
  // interval was 0; the observer clamps it to "sample every round".
  auto net = make_net(16, 8);
  StretchObserver stretch(0);
  net.add_observer(&stretch);
  auto atk = attack::make_attack("maxnode", 8);
  const Metrics m = play_attack(net, *atk, 4);
  EXPECT_GE(m.max_stretch, 1.0);
  EXPECT_TRUE(stretch.sampled_last_round());
}

TEST(StretchObserver, JoinFreezesSamplingInsteadOfAborting) {
  // Regression: stretch is measured against the frozen time-0 distance
  // matrix; a join grows the node-id space, and sampling afterwards
  // used to trip StretchTracker's size check and abort the process.
  Rng rng(12);
  Graph g = graph::barabasi_albert(16, 2, rng);
  Network net(std::move(g), core::make_strategy("dash"), rng);
  StretchObserver stretch;
  net.add_observer(&stretch);

  net.remove(net.graph().alive_nodes().back());
  const double before = stretch.max_stretch();
  EXPECT_GE(before, 1.0);
  EXPECT_TRUE(stretch.active());

  net.join({0, 1});
  EXPECT_FALSE(stretch.active());
  net.remove(net.graph().alive_nodes().back());  // must not abort
  EXPECT_FALSE(stretch.sampled_last_round());
  EXPECT_EQ(stretch.max_stretch(), before);  // pre-join maximum kept
}

TEST(StretchObserver, SamplesOnlyOnSchedule) {
  auto net = make_net(24, 9);
  StretchObserver stretch(1000);  // never due at these round counts
  net.add_observer(&stretch);
  auto atk = attack::make_attack("maxnode", 9);
  play_attack(net, *atk, 5);
  EXPECT_EQ(stretch.max_stretch(), 0.0);
  EXPECT_FALSE(stretch.sampled_last_round());
}

TEST(SuiteConfigure, PerInstanceObserversContributeMetrics) {
  SuiteConfig cfg;
  cfg.make_graph = [](Rng& rng) {
    return graph::barabasi_albert(24, 2, rng);
  };
  cfg.make_healer = healer_factory("dash");
  cfg.scenario = Scenario::parse("targeted:maxnodex8");
  cfg.instances = 3;
  cfg.configure = [](Network& net) {
    net.add_observer(std::make_unique<StretchObserver>());
  };
  const auto results = run_suite(cfg);
  ASSERT_EQ(results.size(), 3u);
  for (const auto& r : results) EXPECT_GE(r.max_stretch, 1.0);
}

TEST(LazyConnectivity, UncheckedRoundsSkipTheScan) {
  // With no observer asking, rounds leave the event's connectivity
  // cache empty; the engine still settles stayed_connected at finish.
  class Peek final : public Observer {
   public:
    std::string name() const override { return "peek"; }
    void on_round_end(const Network&, const RoundEvent& ev) override {
      checked_before = ev.connectivity_checked();
      (void)ev.connected();
      checked_after = ev.connectivity_checked();
    }
    bool checked_before = true, checked_after = false;
  };
  auto net = make_net(24, 14);
  Peek peek;
  net.add_observer(&peek);
  net.remove(net.graph().alive_nodes().front());
  EXPECT_FALSE(peek.checked_before);  // nothing asked before us
  EXPECT_TRUE(peek.checked_after);    // our ask computed + cached it
  const Metrics m = net.finish();
  EXPECT_TRUE(m.stayed_connected);
}

}  // namespace
}  // namespace dash::api
