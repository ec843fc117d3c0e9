// network_test.cpp -- the api::Network engine: event API (remove /
// remove_batch / join), attack schedules played through it, metrics,
// and the incremental connectivity tracker it owns.
#include "api/network.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>

#include "api/api.h"
#include "graph/generators.h"
#include "graph/traversal.h"
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

TEST(Network, RunsToSingleNode) {
  auto net = make_net(64, 1);
  auto atk = attack::make_attack("neighborofmax", 1);
  const Metrics m = play_attack(net, *atk);
  EXPECT_EQ(m.deletions, 63u);
  EXPECT_EQ(net.graph().num_alive(), 1u);
  EXPECT_TRUE(m.stayed_connected);
  EXPECT_GT(m.edges_added, 0u);
  EXPECT_GT(m.max_delta, 0u);
}

TEST(Network, RespectsMaxDeletions) {
  auto net = make_net(64, 2);
  auto atk = attack::make_attack("neighborofmax", 2);
  const Metrics m = play_attack(net, *atk, 10);
  EXPECT_EQ(m.deletions, 10u);
  EXPECT_EQ(net.graph().num_alive(), 54u);
}

TEST(Network, StopConditionEndsRun) {
  auto net = make_net(64, 3);
  auto atk = attack::make_attack("maxnode", 3);
  PlayOptions opts;
  opts.stop_condition = [](const Network& engine) {
    return engine.graph().num_alive() <= 32;
  };
  const Metrics m = play_attack(net, *atk, 0, opts);
  EXPECT_EQ(net.graph().num_alive(), 32u);
  EXPECT_EQ(m.deletions, 32u);
}

TEST(Network, RemoveHealsAndReportsAction) {
  Rng rng(5);
  Network net(graph::star_graph(8), core::make_strategy("dash"), rng);
  const auto action = net.remove(0);  // the hub
  EXPECT_GT(action.new_graph_edges.size(), 0u);
  EXPECT_TRUE(graph::is_connected(net.graph()));
  EXPECT_EQ(net.rounds(), 1u);
}

TEST(Network, SameSeedSameMetrics) {
  auto a = make_net(48, 77);
  auto b = make_net(48, 77);
  auto atk_a = attack::make_attack("random", 9);
  auto atk_b = attack::make_attack("random", 9);
  const Metrics ma = play_attack(a, *atk_a);
  const Metrics mb = play_attack(b, *atk_b);
  EXPECT_EQ(ma.deletions, mb.deletions);
  EXPECT_EQ(ma.max_delta, mb.max_delta);
  EXPECT_EQ(ma.edges_added, mb.edges_added);
  EXPECT_EQ(ma.max_messages, mb.max_messages);
}

TEST(Network, SpecConstructorUsesRegistry) {
  Rng rng(6);
  Graph g = graph::barabasi_albert(32, 2, rng);
  Network net(std::move(g), "sdash:4", 6);
  EXPECT_EQ(net.healer().name(), "SDASH(slack=4)");
  EXPECT_THROW(Network(Graph(4), "bogus", 1), std::invalid_argument);
}

TEST(Network, RemoveBatchHealsSimultaneousDeletions) {
  Rng rng(8);
  Graph g = graph::barabasi_albert(48, 2, rng);
  Network net(std::move(g), core::make_strategy("dash"), rng);
  // Delete three adjacent-ish nodes at once (ids 0..2 are the BA core,
  // so their neighbor-of-neighbor graph stays connected).
  const auto actions = net.remove_batch({0, 1, 2});
  EXPECT_GE(actions.size(), 1u);
  EXPECT_TRUE(graph::is_connected(net.graph()));
  EXPECT_EQ(net.graph().num_alive(), 45u);
  const Metrics m = net.metrics();
  EXPECT_EQ(m.deletions, 3u);
  EXPECT_TRUE(m.stayed_connected);
}

// Ids past the id space and repeated batch members used to index
// per-id arrays before any check ran (a batch member past the end wrote
// out of bounds in begin_batch_deletion).
TEST(NetworkDeathTest, RemoveOutOfRangeIdDies) {
  auto net = make_net(32, 8);
  EXPECT_DEATH(net.remove(32), "removing a dead node");
  EXPECT_DEATH(net.remove(1u << 30), "removing a dead node");
}

TEST(NetworkDeathTest, RemoveBatchOutOfRangeMemberDies) {
  auto net = make_net(32, 8);
  EXPECT_DEATH(net.remove_batch({3, 32}), "batch member is not an alive node");
  net.remove(5);
  EXPECT_DEATH(net.remove_batch({3, 5}), "batch member is not an alive node");
}

TEST(NetworkDeathTest, RemoveBatchDuplicateMemberDies) {
  auto net = make_net(32, 8);
  EXPECT_DEATH(net.remove_batch({3, 4, 3}), "batch member repeats");
}

TEST(Network, JoinCountsAndExtendsGraph) {
  Rng rng(9);
  Network net(graph::path_graph(4), core::make_strategy("dash"), rng);
  const NodeId v = net.join({0, 3});
  EXPECT_EQ(v, 4u);
  EXPECT_TRUE(net.graph().has_edge(4, 0));
  EXPECT_EQ(net.metrics().joins, 1u);
  EXPECT_TRUE(net.metrics().stayed_connected);
}

TEST(Network, MetricsSnapshotMatchesState) {
  auto net = make_net(40, 10);
  auto atk = attack::make_attack("maxnode", 10);
  play_attack(net, *atk, 15);
  const Metrics m = net.metrics();
  EXPECT_EQ(m.max_delta, net.state().max_delta_ever());
  EXPECT_EQ(m.max_id_changes, net.state().max_id_changes());
  EXPECT_EQ(m.max_messages, net.state().max_messages());
  EXPECT_EQ(m.max_messages_sent, net.state().max_messages_sent());
  EXPECT_EQ(m.deletions, net.rounds());
}

TEST(Network, InitialSizeFrozenAtConstruction) {
  auto net = make_net(32, 11);
  EXPECT_EQ(net.initial_size(), 32u);
  net.remove(0);
  net.join({net.graph().alive_nodes().front()});
  EXPECT_EQ(net.initial_size(), 32u);
}

TEST(Network, EarlyStoppingAttackEndsRun) {
  // An attacker returning kInvalidNode ends its phase.
  class OneShot final : public attack::AttackStrategy {
   public:
    std::string name() const override { return "OneShot"; }
    NodeId select(const Graph& g, const core::HealingState&) override {
      if (fired_) return graph::kInvalidNode;
      fired_ = true;
      return g.alive_nodes().front();
    }

   private:
    bool fired_ = false;
  };
  auto net = make_net(32, 12);
  OneShot atk;
  const Metrics m = play_attack(net, atk);
  EXPECT_EQ(m.deletions, 1u);
}

// ---- incremental connectivity integration ---------------------------------

TEST(Network, OwningEnginesDefaultToTrackerMode) {
  auto net = make_net(32, 13);
  // DASH_VERIFY_CONNECTIVITY=1 upgrades the default to kVerify; both
  // are tracker-backed.
  if (std::getenv("DASH_VERIFY_CONNECTIVITY") == nullptr) {
    EXPECT_EQ(net.connectivity_mode(), ConnectivityMode::kTracker);
  }
  EXPECT_NE(net.connectivity_tracker(), nullptr);
}

TEST(Network, ComponentAccessorsMatchScan) {
  auto net = make_net(64, 15);
  auto atk = attack::make_attack("maxnode", 15);
  play_attack(net, *atk, 20);
  const auto truth = graph::connected_components(net.graph());
  EXPECT_EQ(net.component_count(), truth.count());
  EXPECT_EQ(net.largest_component(), truth.largest());
  const Metrics m = net.metrics();
  EXPECT_EQ(m.components, truth.count());
  EXPECT_EQ(m.largest_component, truth.largest());
}

TEST(Network, HealedRunsNeverRebuildTheTracker) {
  // Every DASH deletion is certified through the healing forest, so the
  // whole schedule stays on the O(alpha) fast path: zero re-scans.
  auto net = make_net(128, 16);
  auto atk = attack::make_attack("neighborofmax", 16);
  const Metrics m = play_attack(net, *atk);
  EXPECT_TRUE(m.stayed_connected);
  ASSERT_NE(net.connectivity_tracker(), nullptr);
  EXPECT_EQ(net.connectivity_tracker()->rebuilds(), 0u);
  EXPECT_EQ(net.connectivity_tracker()->nodes_rescanned(), 0u);
}

TEST(Network, UnattachedJoinSplitsComponentStructure) {
  Rng rng(17);
  Network net(graph::path_graph(4), core::make_strategy("dash"), rng);
  net.join({});
  EXPECT_EQ(net.component_count(), 2u);
  EXPECT_EQ(net.largest_component(), 4u);
  const Metrics m = net.metrics();
  EXPECT_FALSE(m.stayed_connected);
  EXPECT_EQ(m.components, 2u);
}

TEST(Network, RoundEventCacheIsFreshEveryRound) {
  // The connected() verdict is cached per event; the engine constructs
  // one event per round, so no round may start with a cached verdict
  // (Network::finish_round DASH_CHECKs this). Observing the flag at
  // both pipeline stages over many rounds proves no leak.
  class CacheProbe final : public Observer {
   public:
    std::string name() const override { return "cache-probe"; }
    void on_heal(const Network&, const RoundEvent& ev) override {
      // First stage to see the event: nothing may be cached yet.
      EXPECT_FALSE(ev.connectivity_checked());
      EXPECT_TRUE(ev.connected());
      EXPECT_TRUE(ev.connectivity_checked());
    }
    void on_round_end(const Network&, const RoundEvent& ev) override {
      // Same round, later stage: the cached verdict is still visible.
      EXPECT_TRUE(ev.connectivity_checked());
      ++rounds_seen;
    }
    std::size_t rounds_seen = 0;
  };
  auto net = make_net(48, 18);
  CacheProbe probe;
  net.add_observer(&probe);
  auto atk = attack::make_attack("neighborofmax", 18);
  play_attack(net, *atk, 30);
  EXPECT_EQ(probe.rounds_seen, 30u);
}

TEST(Network, DetachedRoundEventDefaultsToConnected) {
  RoundEvent ev;
  EXPECT_FALSE(ev.connectivity_checked());
  EXPECT_TRUE(ev.connected());
  EXPECT_TRUE(ev.connectivity_checked());
}

}  // namespace
}  // namespace dash::api
