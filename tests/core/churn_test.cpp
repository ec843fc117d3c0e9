// churn_test.cpp -- organic node arrivals (join_node) interleaved with
// adversarial deletions and healing: the reconfigurable-network setting
// the paper motivates (overlays grow and shrink).
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <sstream>

#include "../forest_reference.h"
#include "analysis/invariants.h"
#include "api/api.h"
#include "attack/basic.h"
#include "core/healers.h"
#include "core/healing_state.h"
#include "graph/generators.h"
#include "graph/traversal.h"
#include "util/rng.h"

namespace dash::core {
namespace {

using dash::util::Rng;
using graph::Graph;
using graph::NodeId;

TEST(Churn, JoinExtendsGraphAndState) {
  Rng rng(1);
  Graph g = graph::path_graph(3);
  HealingState st(g, rng);
  const NodeId v = st.join_node(g, {0, 2});
  EXPECT_EQ(v, 3u);
  EXPECT_EQ(g.num_nodes(), 4u);
  EXPECT_TRUE(g.has_edge(3, 0));
  EXPECT_TRUE(g.has_edge(3, 2));
  EXPECT_EQ(st.initial_degree(v), 2u);
  EXPECT_EQ(st.delta(v), 0);
  EXPECT_EQ(st.weight(v), 1u);
}

TEST(Churn, JoinEdgesShiftBaselineNotDelta) {
  Rng rng(2);
  Graph g = graph::path_graph(3);
  HealingState st(g, rng);
  st.join_node(g, {1});
  // Node 1's degree grew organically: baseline moved, delta untouched.
  EXPECT_EQ(st.delta(1), 0);
  EXPECT_EQ(st.initial_degree(1), 3u);
  EXPECT_TRUE(analysis::HealingForestWalk().check(g, st, {}).ok);
}

TEST(Churn, FreshIdsAreUnique) {
  Rng rng(3);
  Graph g(4);
  HealingState st(g, rng);
  const NodeId a = st.join_node(g, {});
  const NodeId b = st.join_node(g, {});
  EXPECT_NE(st.initial_id(a), st.initial_id(b));
  for (NodeId v = 0; v < 4; ++v) {
    EXPECT_NE(st.initial_id(v), st.initial_id(a));
    EXPECT_NE(st.initial_id(v), st.initial_id(b));
  }
}

TEST(Churn, JoinedNodesParticipateInHealing) {
  Rng rng(4);
  Graph g = graph::star_graph(4);
  HealingState st(g, rng);
  const NodeId newcomer = st.join_node(g, {0});  // joins at the hub

  DashStrategy dash;
  const DeletionContext ctx = st.begin_deletion(g, 0);
  g.delete_node(0);
  dash.heal(g, st, ctx);
  // The newcomer was a hub neighbor: it must be reconnected.
  EXPECT_TRUE(graph::is_connected(g));
  EXPECT_GE(g.degree(newcomer), 1u);
}

TEST(Churn, MixedJoinAttackHealScheduleKeepsInvariants) {
  Rng rng(5);
  Graph g = graph::barabasi_albert(48, 2, rng);
  HealingState st(g, rng);
  DashStrategy dash;
  attack::NeighborOfMaxAttack atk(7);
  Rng churn(11);
  analysis::HealingForestWalk walk;

  for (int round = 0; round < 120; ++round) {
    if (churn.chance(0.3) || g.num_alive() < 8) {
      // A newcomer attaches to up to 2 random alive nodes.
      auto alive = g.alive_nodes();
      churn.shuffle(alive);
      std::vector<NodeId> targets(
          alive.begin(),
          alive.begin() + std::min<std::size_t>(2, alive.size()));
      st.join_node(g, targets);
    } else {
      const NodeId v = atk.select(g, st);
      const DeletionContext ctx = st.begin_deletion(g, v);
      g.delete_node(v);
      dash.heal(g, st, ctx);
    }
    // Note: joins may attach to a single component only; with 2 random
    // targets the graph stays connected because targets are alive and
    // the pre-join graph is connected.
    ASSERT_TRUE(graph::is_connected(g)) << "round " << round;
    // Forest, ids, E' subset of E and delta bookkeeping in one walk.
    const analysis::Check check = walk.check(g, st, {});
    ASSERT_TRUE(check.ok) << "round " << round << ": " << check.violation;
  }
}

TEST(Churn, DuplicateAttachTargetAborts) {
  Rng rng(6);
  Graph g = graph::path_graph(3);
  HealingState st(g, rng);
  std::vector<NodeId> bad{1, 1};
  EXPECT_DEATH(st.join_node(g, bad), "duplicate attach");
}

TEST(Churn, StateGraphMismatchAborts) {
  Rng rng(7);
  Graph g = graph::path_graph(3);
  HealingState st(g, rng);
  g.add_node();  // graph grew behind the state's back
  EXPECT_DEATH(st.join_node(g, {}), "out of sync");
}

// ---- churn through the engine + observer pipeline --------------------

TEST(Churn, NetworkJoinInterleavedKeepsInvariants) {
  // The same mixed join/attack/heal workload as above, driven through
  // api::Network with the invariant battery plugged in as an observer:
  // connectivity, delta accounting, and the forest invariant must hold
  // after every event (the battery re-runs on joins too).
  Rng rng(5);
  graph::Graph g = graph::barabasi_albert(48, 2, rng);
  api::Network net(std::move(g), make_strategy("dash"), rng);
  api::InvariantObserver inv;
  net.add_observer(&inv);

  attack::NeighborOfMaxAttack atk(7);
  Rng churn(11);
  std::size_t joins = 0;
  for (int round = 0; round < 120; ++round) {
    if (churn.chance(0.3) || net.graph().num_alive() < 8) {
      auto alive = net.graph().alive_nodes();
      churn.shuffle(alive);
      std::vector<NodeId> targets(
          alive.begin(),
          alive.begin() + std::min<std::size_t>(2, alive.size()));
      net.join(targets);
      ++joins;
    } else {
      const NodeId v = atk.select(net.graph(), net.state());
      net.remove(v);
    }
    ASSERT_TRUE(inv.ok()) << "round " << round << ": " << inv.violation();
    ASSERT_TRUE(net.stayed_connected()) << "round " << round;
    ASSERT_TRUE(
        dash::testing::healing_graph_is_forest(net.graph(), net.state()));
  }

  const api::Metrics m = net.finish();
  EXPECT_TRUE(m.violation.empty()) << m.violation;
  EXPECT_EQ(m.joins, joins);
  EXPECT_EQ(m.joins + m.deletions, 120u);
  EXPECT_TRUE(m.stayed_connected);
}

TEST(Churn, NetworkJoinedNodesParticipateInHealing) {
  Rng rng(6);
  api::Network net(graph::star_graph(4), make_strategy("dash"), rng);
  const NodeId newcomer = net.join({0});  // joins at the hub
  net.remove(0);                          // hub deleted, DASH heals
  EXPECT_TRUE(graph::is_connected(net.graph()));
  EXPECT_GE(net.graph().degree(newcomer), 1u);
  EXPECT_EQ(net.metrics().joins, 1u);
}

TEST(Churn, NetworkJoinThenBatchDeletionKeepsInvariants) {
  Rng rng(7);
  graph::Graph g = graph::barabasi_albert(32, 2, rng);
  api::Network net(std::move(g), make_strategy("dash"), rng);
  api::InvariantObserver inv;
  net.add_observer(&inv);

  const NodeId a = net.join({0, 1});
  const NodeId b = net.join({a, 2});
  net.remove_batch({0, 1});  // adjacent core nodes, deleted together
  EXPECT_TRUE(inv.ok()) << inv.violation();
  EXPECT_TRUE(graph::is_connected(net.graph()));
  EXPECT_TRUE(net.graph().alive(a));
  EXPECT_TRUE(net.graph().alive(b));
  const api::Metrics m = net.finish();
  EXPECT_EQ(m.joins, 2u);
  EXPECT_EQ(m.deletions, 2u);
}

TEST(Churn, CheckpointPreservesJoinState) {
  Rng rng(8);
  Graph g = graph::path_graph(3);
  HealingState st(g, rng);
  st.join_node(g, {0});
  st.join_node(g, {1, 2});

  std::stringstream buf;
  st.save(buf);
  const HealingState back = HealingState::load(buf);
  EXPECT_TRUE(st == back);
  // Fresh-id source restored: next joins get distinct ids.
  // (operator== covers next_fresh_id_.)
}

}  // namespace
}  // namespace dash::core
