#include "core/healing_state.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "../forest_reference.h"
#include "graph/generators.h"
#include "util/rng.h"

namespace dash::core {
namespace {

using dash::util::Rng;
using graph::path_graph;
using graph::star_graph;

/// UN(v, G) of a single deletion: representatives() skipping v's own id.
std::vector<NodeId> unique_neighbors(const HealingState& st,
                                     const DeletionContext& ctx) {
  std::vector<NodeId> un;
  st.representatives(ctx.neighbors_g, {&ctx.component_id, 1}, un);
  return un;
}

TEST(HealingState, InitialIdsAreAPermutation) {
  Rng rng(1);
  const Graph g(10);
  const HealingState st(g, rng);
  std::set<std::uint64_t> ids;
  for (NodeId v = 0; v < 10; ++v) {
    ids.insert(st.initial_id(v));
    EXPECT_LT(st.initial_id(v), 10u);
    EXPECT_EQ(st.component_id(v), st.initial_id(v));
    EXPECT_EQ(st.delta(v), 0);
    EXPECT_EQ(st.weight(v), 1u);
  }
  EXPECT_EQ(ids.size(), 10u);
}

TEST(HealingState, InitialDegreesSnapshot) {
  Rng rng(2);
  const Graph g = star_graph(5);
  const HealingState st(g, rng);
  EXPECT_EQ(st.initial_degree(0), 4u);
  EXPECT_EQ(st.initial_degree(1), 1u);
}

TEST(HealingState, AddHealingEdgeUpdatesDelta) {
  Rng rng(3);
  Graph g(4);
  HealingState st(g, rng);
  EXPECT_TRUE(st.add_healing_edge(g, 0, 1));
  EXPECT_EQ(st.delta(0), 1);
  EXPECT_EQ(st.delta(1), 1);
  EXPECT_EQ(st.num_healing_edges(), 1u);
  EXPECT_EQ(st.max_delta_ever(), 1u);
  // Re-adding the same edge changes nothing.
  EXPECT_FALSE(st.add_healing_edge(g, 1, 0));
  EXPECT_EQ(st.delta(0), 1);
  EXPECT_EQ(st.num_healing_edges(), 1u);
}

TEST(HealingState, HealingEdgeOverExistingGraphEdge) {
  // An RT edge whose endpoints are already G-adjacent joins E' but must
  // not bump delta (the degree did not change).
  Rng rng(4);
  Graph g(3);
  g.add_edge(0, 1);
  HealingState st(g, rng);
  EXPECT_FALSE(st.add_healing_edge(g, 0, 1));
  EXPECT_EQ(st.delta(0), 0);
  EXPECT_EQ(st.num_healing_edges(), 1u);
  const auto forest = st.forest_neighbors(0);
  EXPECT_EQ(std::vector<NodeId>(forest.begin(), forest.end()),
            std::vector<NodeId>{1});
}

TEST(HealingState, DeltaIsNetDegreeChange) {
  Rng rng(5);
  Graph g = path_graph(3);
  HealingState st(g, rng);
  st.begin_deletion(g, 0);
  g.delete_node(0);
  // Node 1 lost its edge to node 0 and nothing healed it back.
  EXPECT_EQ(st.raw_degree_increase(g, 1), -1);
  EXPECT_EQ(st.delta(1), -1);  // delta tracks the net change
  EXPECT_EQ(st.delta(2), 0);
  EXPECT_EQ(st.max_delta_ever(), 0u);  // never went positive
}

TEST(HealingState, BeginDeletionCapturesContext) {
  Rng rng(6);
  Graph g = star_graph(4);
  HealingState st(g, rng);
  st.add_healing_edge(g, 1, 2);  // pretend a past heal linked 1-2
  // Give node 0 a forest edge too.
  st.add_healing_edge(g, 0, 3);

  const DeletionContext ctx = st.begin_deletion(g, 0);
  EXPECT_EQ(ctx.deleted, 0u);
  EXPECT_EQ(ctx.neighbors_g, (std::vector<NodeId>{1, 2, 3}));
  EXPECT_EQ(ctx.forest_neighbors, std::vector<NodeId>{3});
  EXPECT_EQ(ctx.weight, 1u);
  // v detached from G'.
  EXPECT_TRUE(st.forest_neighbors(3).empty());
}

TEST(HealingState, WeightTransfersToForestNeighbor) {
  Rng rng(7);
  Graph g = path_graph(3);
  HealingState st(g, rng);
  st.add_healing_edge(g, 0, 2);  // forest edge 0-2 (also new G edge)

  st.begin_deletion(g, 0);
  g.delete_node(0);
  // Weight went to the forest neighbor (node 2), not the G-neighbor 1.
  EXPECT_EQ(st.weight(2), 2u);
  EXPECT_EQ(st.weight(1), 1u);
  EXPECT_EQ(st.weight(0), 0u);
  EXPECT_EQ(st.total_alive_weight(g), 3u);
}

TEST(HealingState, WeightFallsBackToGraphNeighbor) {
  Rng rng(8);
  Graph g = path_graph(2);
  HealingState st(g, rng);
  st.begin_deletion(g, 0);
  g.delete_node(0);
  EXPECT_EQ(st.weight(1), 2u);
  EXPECT_EQ(st.total_alive_weight(g), 2u);
}

TEST(HealingState, UniqueNeighborsPartitionsById) {
  Rng rng(9);
  Graph g = star_graph(5);  // hub 0, leaves 1..4
  HealingState st(g, rng);
  // All leaves start in singleton components => all are unique reps.
  const DeletionContext ctx = st.begin_deletion(g, 0);
  const auto un = unique_neighbors(st, ctx);
  EXPECT_EQ(un.size(), 4u);
}

TEST(HealingState, UniqueNeighborsPicksLowestInitialId) {
  Rng rng(10);
  Graph g = star_graph(4);  // hub 0, leaves 1,2,3
  HealingState st(g, rng);
  // Put leaves 1 and 2 in the same G'-component.
  st.add_healing_edge(g, 1, 2);
  st.propagate_min_id(g, {1, 2});
  const DeletionContext ctx = st.begin_deletion(g, 0);
  const auto un = unique_neighbors(st, ctx);
  ASSERT_EQ(un.size(), 2u);  // {1 or 2} plus {3}
  const NodeId rep =
      st.initial_id(1) < st.initial_id(2) ? NodeId{1} : NodeId{2};
  EXPECT_TRUE(std::find(un.begin(), un.end(), rep) != un.end());
  EXPECT_TRUE(std::find(un.begin(), un.end(), NodeId{3}) != un.end());
}

TEST(HealingState, UniqueNeighborsExcludesDeletedNodesComponent) {
  Rng rng(11);
  Graph g = star_graph(4);
  HealingState st(g, rng);
  // Link hub 0 and leaf 1 in G' -> same component id after propagation.
  st.add_healing_edge(g, 0, 1);
  st.propagate_min_id(g, {0, 1});
  const DeletionContext ctx = st.begin_deletion(g, 0);
  const auto un = unique_neighbors(st, ctx);
  // Leaf 1 shares the deleted hub's id, so it is excluded from UN...
  EXPECT_TRUE(std::find(un.begin(), un.end(), NodeId{1}) == un.end());
  // ...but arrives through N(v,G') in the reconnection set.
  const auto rs = st.reconnection_set(ctx);
  EXPECT_TRUE(std::find(rs.begin(), rs.end(), NodeId{1}) != rs.end());
  EXPECT_EQ(rs.size(), 3u);  // leaves 1, 2, 3
}

TEST(HealingState, ReconnectionSetSortedByDelta) {
  Rng rng(12);
  Graph g = star_graph(5);
  HealingState st(g, rng);
  // Manufacture unequal deltas: 3 gets two healing edges, 2 gets one.
  st.add_healing_edge(g, 3, 2);
  st.add_healing_edge(g, 3, 4);
  st.propagate_min_id(g, {2, 3, 4});
  const DeletionContext ctx = st.begin_deletion(g, 0);
  const auto rs = st.reconnection_set(ctx);
  for (std::size_t i = 1; i < rs.size(); ++i) {
    EXPECT_LE(st.delta(rs[i - 1]), st.delta(rs[i]));
  }
}

TEST(HealingState, PropagateMinIdRelabelsComponent) {
  Rng rng(13);
  Graph g = path_graph(4);
  HealingState st(g, rng);
  st.add_healing_edge(g, 0, 1);
  st.add_healing_edge(g, 1, 2);
  const std::uint64_t expect =
      std::min({st.component_id(0), st.component_id(1), st.component_id(2)});
  const std::size_t changed = st.propagate_min_id(g, {0, 1, 2});
  EXPECT_EQ(changed, 2u);  // all but the minimum holder
  EXPECT_EQ(st.component_id(0), expect);
  EXPECT_EQ(st.component_id(1), expect);
  EXPECT_EQ(st.component_id(2), expect);
  EXPECT_NE(st.component_id(3), expect);
}

TEST(HealingState, PropagationCountsMessages) {
  Rng rng(14);
  Graph g = path_graph(3);
  HealingState st(g, rng);
  st.add_healing_edge(g, 0, 2);  // also adds G edge 0-2
  const std::size_t changed = st.propagate_min_id(g, {0, 2});
  ASSERT_EQ(changed, 1u);
  const NodeId loser =
      st.initial_id(0) < st.initial_id(2) ? NodeId{2} : NodeId{0};
  EXPECT_EQ(st.id_changes(loser), 1u);
  // The loser broadcast to its G-neighbors (degree 2 now).
  EXPECT_EQ(st.messages_sent(loser), 2u);
  EXPECT_GE(st.messages_received(1), 1u);
}

TEST(HealingState, RemOfFreshNodeIsWeight) {
  Rng rng(15);
  Graph g(3);
  HealingState st(g, rng);
  EXPECT_EQ(dash::testing::rem(g, st, 0), 1u);
}

TEST(HealingState, RemMatchesHandComputation) {
  Rng rng(16);
  Graph g(5);
  HealingState st(g, rng);
  // Forest: 0-1, 1-2, 1-3, 3-4. Weights all 1.
  st.add_healing_edge(g, 0, 1);
  st.add_healing_edge(g, 1, 2);
  st.add_healing_edge(g, 1, 3);
  st.add_healing_edge(g, 3, 4);
  // For node 1: subtrees {0} (w=1), {2} (w=1), {3,4} (w=2).
  // rem = (1+1+2) - 2 + 1 = 3.
  EXPECT_EQ(dash::testing::rem(g, st, 1), 3u);
  // For node 0: single subtree {1,2,3,4} (w=4): rem = 4 - 4 + 1 = 1.
  EXPECT_EQ(dash::testing::rem(g, st, 0), 1u);
}

TEST(HealingState, ForestDetection) {
  Rng rng(17);
  Graph g(4);
  HealingState st(g, rng);
  st.add_healing_edge(g, 0, 1);
  st.add_healing_edge(g, 1, 2);
  EXPECT_TRUE(dash::testing::healing_graph_is_forest(g, st));
  st.add_healing_edge(g, 2, 0);  // closes a cycle
  EXPECT_FALSE(dash::testing::healing_graph_is_forest(g, st));
}

TEST(HealingState, HealingComponentCollectsTree) {
  Rng rng(18);
  Graph g(5);
  HealingState st(g, rng);
  st.add_healing_edge(g, 0, 1);
  st.add_healing_edge(g, 1, 2);
  auto comp = st.healing_component(g, 2);
  std::sort(comp.begin(), comp.end());
  EXPECT_EQ(comp, (std::vector<NodeId>{0, 1, 2}));
  EXPECT_EQ(st.healing_component(g, 4), std::vector<NodeId>{4});
}

}  // namespace
}  // namespace dash::core
