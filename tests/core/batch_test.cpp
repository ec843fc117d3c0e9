#include "core/batch.h"

#include <gtest/gtest.h>

#include <cmath>

#include "../forest_reference.h"
#include "analysis/invariants.h"
#include "graph/generators.h"
#include "graph/traversal.h"
#include "util/rng.h"

namespace dash::core {
namespace {

using dash::util::Rng;
using graph::Graph;
using graph::NodeId;

TEST(Batch, SingletonBatchMatchesSingleDeletionSemantics) {
  Rng rng(1);
  Graph g = graph::star_graph(6);
  HealingState st(g, rng);
  const auto actions = dash_delete_and_heal_batch(g, st, {0});
  ASSERT_EQ(actions.size(), 1u);
  EXPECT_EQ(actions[0].reconnection_set_size, 5u);
  EXPECT_EQ(actions[0].new_graph_edges.size(), 4u);
  EXPECT_TRUE(graph::is_connected(g));
  EXPECT_TRUE(dash::testing::healing_graph_is_forest(g, st));
  EXPECT_EQ(st.total_alive_weight(g), 6u);
}

TEST(Batch, AdjacentPairIsOneCluster) {
  // Path 0-1-2-3-4; delete {1,2} simultaneously: one cluster, and the
  // survivors {0, 3} must be reconnected even though no single deleted
  // node neighbors them both.
  Rng rng(2);
  Graph g = graph::path_graph(5);
  HealingState st(g, rng);
  const auto actions = dash_delete_and_heal_batch(g, st, {1, 2});
  ASSERT_EQ(actions.size(), 1u);
  EXPECT_TRUE(graph::is_connected(g));
  EXPECT_TRUE(g.has_edge(0, 3));
  EXPECT_EQ(st.total_alive_weight(g), 5u);
}

TEST(Batch, DisjointDeletionsFormTwoClusters) {
  // Cycle of 8; delete nodes 1 and 5 (not adjacent): two clusters,
  // each healed locally.
  Rng rng(3);
  Graph g = graph::cycle_graph(8);
  HealingState st(g, rng);
  const auto actions = dash_delete_and_heal_batch(g, st, {1, 5});
  ASSERT_EQ(actions.size(), 2u);
  EXPECT_TRUE(graph::is_connected(g));
  EXPECT_TRUE(dash::testing::healing_graph_is_forest(g, st));
}

TEST(Batch, WholeNeighborhoodCluster) {
  // Star: delete the hub plus two leaves in one step.
  Rng rng(4);
  Graph g = graph::star_graph(6);
  HealingState st(g, rng);
  const auto actions = dash_delete_and_heal_batch(g, st, {0, 1, 2});
  ASSERT_EQ(actions.size(), 1u);
  EXPECT_TRUE(graph::is_connected(g));
  EXPECT_EQ(g.num_alive(), 3u);
  EXPECT_EQ(st.total_alive_weight(g), 6u);  // weights moved, not lost
}

TEST(Batch, ComponentIdsConsistentAfterBatch) {
  Rng rng(5);
  Graph g = graph::barabasi_albert(48, 2, rng);
  HealingState st(g, rng);
  dash_delete_and_heal_batch(g, st, {3, 7, 11});
  const auto check = analysis::HealingForestWalk().check(g, st, {});
  EXPECT_TRUE(check.ok) << check.violation;
}

TEST(Batch, DeltaStaysNetDegreeChange) {
  Rng rng(6);
  Graph g = graph::barabasi_albert(48, 2, rng);
  HealingState st(g, rng);
  dash_delete_and_heal_batch(g, st, {1, 2, 3, 4});
  for (NodeId v : g.alive_nodes()) {
    EXPECT_EQ(st.delta(v), st.raw_degree_increase(g, v)) << "node " << v;
  }
}

TEST(Batch, RepeatedBatchesKeepInvariants) {
  Rng rng(7);
  Graph g = graph::barabasi_albert(96, 2, rng);
  HealingState st(g, rng);
  Rng pick(13);
  analysis::HealingForestWalk walk;
  while (g.num_alive() > 8) {
    // Random batch of up to 4 alive nodes.
    auto alive = g.alive_nodes();
    pick.shuffle(alive);
    const std::size_t k = 1 + pick.below(4);
    std::vector<NodeId> batch(alive.begin(),
                              alive.begin() + std::min(k, alive.size()));
    dash_delete_and_heal_batch(g, st, batch);
    ASSERT_TRUE(graph::is_connected(g));
    const auto check = walk.check(g, st, {});
    ASSERT_TRUE(check.ok) << check.violation;
    for (NodeId v : g.alive_nodes()) {
      ASSERT_EQ(st.delta(v), st.raw_degree_increase(g, v));
    }
  }
}

TEST(Batch, DegreeBoundStaysLogarithmicUnderBatches) {
  // The footnote promises DASH extends to batches; the degree increase
  // should stay in the same regime (allow the deterministic bound).
  Rng rng(8);
  const std::size_t n = 128;
  Graph g = graph::barabasi_albert(n, 2, rng);
  HealingState st(g, rng);
  Rng pick(17);
  while (g.num_alive() > 4) {
    auto alive = g.alive_nodes();
    pick.shuffle(alive);
    const std::size_t k = 1 + pick.below(3);
    std::vector<NodeId> batch(alive.begin(),
                              alive.begin() + std::min(k, alive.size()));
    dash_delete_and_heal_batch(g, st, batch);
  }
  EXPECT_LE(static_cast<double>(st.max_delta_ever()),
            2.0 * std::log2(static_cast<double>(n)) + 1e-9);
}

TEST(Batch, WeightConservedAcrossManyBatches) {
  Rng rng(9);
  Graph g = graph::barabasi_albert(64, 2, rng);
  HealingState st(g, rng);
  Rng pick(19);
  while (g.num_alive() > 6) {
    auto alive = g.alive_nodes();
    pick.shuffle(alive);
    std::vector<NodeId> batch(alive.begin(), alive.begin() + 2);
    dash_delete_and_heal_batch(g, st, batch);
    ASSERT_EQ(st.total_alive_weight(g), 64u);
  }
}

TEST(Batch, EmptyBatchAborts) {
  Rng rng(10);
  Graph g = graph::path_graph(3);
  HealingState st(g, rng);
  EXPECT_DEATH(begin_batch_deletion(st, g, {}), "");
}

TEST(Batch, DuplicateInBatchAborts) {
  Rng rng(11);
  Graph g = graph::path_graph(4);
  HealingState st(g, rng);
  std::vector<NodeId> bad{1, 1};
  EXPECT_DEATH(begin_batch_deletion(st, g, bad), "duplicate");
}

TEST(Batch, HealingEdgeCountStaysConsistent) {
  Rng rng(12);
  Graph g = graph::barabasi_albert(64, 2, rng);
  HealingState st(g, rng);
  Rng pick(23);
  while (g.num_alive() > 10) {
    auto alive = g.alive_nodes();
    pick.shuffle(alive);
    std::vector<NodeId> batch(alive.begin(), alive.begin() + 3);
    dash_delete_and_heal_batch(g, st, batch);
    // Recount E' from adjacency and compare with the running counter.
    std::size_t pairs = 0;
    for (NodeId v : g.alive_nodes()) pairs += st.forest_neighbors(v).size();
    ASSERT_EQ(st.num_healing_edges(), pairs / 2);
  }
}

}  // namespace
}  // namespace dash::core
