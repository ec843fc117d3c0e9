#include "core/healers.h"

#include <gtest/gtest.h>

#include <cmath>

#include "../forest_reference.h"
#include "../test_helpers.h"
#include "analysis/invariants.h"
#include "graph/generators.h"
#include "graph/traversal.h"
#include "util/rng.h"

namespace dash::core {
namespace {

using dash::testing::RunSpec;
using dash::testing::run_checked;
using dash::util::Rng;

/// Delete one node and heal, driving the state protocol correctly.
HealAction delete_and_heal(Graph& g, HealingState& st,
                           HealingStrategy& strat, NodeId v) {
  const DeletionContext ctx = st.begin_deletion(g, v);
  g.delete_node(v);
  return strat.heal(g, st, ctx);
}

TEST(Dash, HealsStarDeletionIntoBinaryTree) {
  Rng rng(1);
  Graph g = graph::star_graph(8);  // hub 0, leaves 1..7
  HealingState st(g, rng);
  DashStrategy dash;
  const HealAction a = delete_and_heal(g, st, dash, 0);
  // 7 singleton components reconnect with exactly 6 edges.
  EXPECT_EQ(a.reconnection_set_size, 7u);
  EXPECT_EQ(a.new_graph_edges.size(), 6u);
  EXPECT_TRUE(graph::is_connected(g));
  EXPECT_TRUE(dash::testing::healing_graph_is_forest(g, st));
  // Complete binary tree on 7 nodes: max RT degree 3, and every member
  // also lost its edge to the hub => max net delta 3 - 1 = 2.
  EXPECT_LE(st.max_delta_ever(), 2u);
}

TEST(Dash, DeletionOfLeafNeedsNoEdges) {
  Rng rng(2);
  Graph g = graph::path_graph(3);
  HealingState st(g, rng);
  DashStrategy dash;
  const HealAction a = delete_and_heal(g, st, dash, 2);  // endpoint
  EXPECT_EQ(a.reconnection_set_size, 1u);
  EXPECT_TRUE(a.new_graph_edges.empty());
  EXPECT_TRUE(graph::is_connected(g));
}

TEST(Dash, DeletionOfIsolatedNodeIsNoop) {
  Rng rng(3);
  Graph g(2);
  HealingState st(g, rng);
  DashStrategy dash;
  const HealAction a = delete_and_heal(g, st, dash, 0);
  EXPECT_EQ(a.reconnection_set_size, 0u);
  EXPECT_TRUE(a.new_graph_edges.empty());
}

TEST(Dash, HighDeltaNodesBecomeLeaves) {
  Rng rng(4);
  Graph g = graph::star_graph(8);
  HealingState st(g, rng);
  // Manually burden node 7 so it must be placed as an RT leaf.
  st.add_healing_edge(g, 7, 1);
  st.add_healing_edge(g, 7, 2);
  st.add_healing_edge(g, 7, 3);
  st.propagate_min_id(g, {1, 2, 3, 7});
  const std::int32_t before = st.delta(7);

  DashStrategy dash;
  delete_and_heal(g, st, dash, 0);
  // Node 7 had the strictly largest delta; DASH puts it at a leaf (one
  // new parent edge at most, one hub edge lost), so its delta must not
  // grow.
  EXPECT_LE(st.delta(7), before);
  EXPECT_TRUE(graph::is_connected(g));
}

TEST(Dash, ComponentIdsStayConsistent) {
  Rng rng(5);
  Graph g = graph::barabasi_albert(64, 2, rng);
  HealingState st(g, rng);
  DashStrategy dash;
  dash::util::Rng pick(99);
  analysis::HealingForestWalk walk;
  for (int round = 0; round < 30; ++round) {
    const auto alive = g.alive_nodes();
    const NodeId v =
        alive[static_cast<std::size_t>(pick.below(alive.size()))];
    delete_and_heal(g, st, dash, v);
    const auto check = walk.check(g, st, {});
    ASSERT_TRUE(check.ok) << check.violation;
  }
}

TEST(Dash, FullDeletionKeepsConnectivityOnBaGraph) {
  Rng rng(6);
  run_checked(graph::barabasi_albert(128, 2, rng),
              {.attack = "neighborofmax", .healer = "dash", .seed = 7,
               .check_rem = true});
}

TEST(Dash, FullDeletionOnTree) {
  Rng rng(7);
  run_checked(graph::random_tree(100, rng),
              {.attack = "maxnode", .healer = "dash", .seed = 8,
               .check_rem = true});
}

TEST(Dash, FullDeletionOnErdosRenyi) {
  Rng rng(8);
  run_checked(graph::connected_gnp(80, 0.1, rng),
              {.attack = "random", .healer = "dash", .seed = 9,
               .check_rem = true});
}

TEST(Dash, DegreeBoundHoldsToTheEnd) {
  // Theorem 1: delta <= 2 log2 n even when every node is deleted.
  Rng rng(9);
  const std::size_t n = 256;
  const auto result = run_checked(
      graph::barabasi_albert(n, 2, rng),
      {.attack = "neighborofmax", .healer = "dash", .seed = 10});
  EXPECT_LE(result.max_delta,
            static_cast<std::uint32_t>(2.0 * std::log2(n)));
  EXPECT_EQ(result.deletions, n - 1);
}

TEST(Dash, AdaptiveMaxDeltaAttackStillBounded) {
  Rng rng(10);
  const std::size_t n = 128;
  const auto result =
      run_checked(graph::barabasi_albert(n, 2, rng),
                  {.attack = "maxdelta", .healer = "dash", .seed = 11});
  EXPECT_LE(result.max_delta,
            static_cast<std::uint32_t>(2.0 * std::log2(n)));
}

TEST(Dash, CloneIsIndependent) {
  DashStrategy proto;
  auto copy = proto.clone();
  EXPECT_EQ(copy->name(), "DASH");
  EXPECT_TRUE(copy->maintains_forest());
}

}  // namespace
}  // namespace dash::core
