#include "analysis/stretch.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "graph/generators.h"
#include "graph/traversal.h"
#include "util/rng.h"

namespace dash::analysis {
namespace {

using graph::Graph;
using graph::NodeId;

TEST(Stretch, IdentityGraphHasStretchOne) {
  const Graph g = graph::cycle_graph(8);
  const StretchTracker tracker(g);
  const StretchStats stats = tracker.stretch_stats(g);
  EXPECT_DOUBLE_EQ(stats.max, 1.0);
  EXPECT_DOUBLE_EQ(stats.average, 1.0);
}

TEST(Stretch, OriginalDistancesFrozen) {
  const Graph g = graph::path_graph(4);
  const StretchTracker tracker(g);
  EXPECT_EQ(tracker.original_distance(0, 3), 3u);
  EXPECT_EQ(tracker.original_distance(1, 2), 1u);
}

TEST(Stretch, DetourIncreasesStretch) {
  // Cycle 0-1-2-3-4-5-0; delete node 1 and reconnect 0-2 directly:
  // distances are preserved => stretch 1. Instead reconnect nothing and
  // the pair (0,2) must go the long way: distance 4 vs original 2.
  Graph g = graph::cycle_graph(6);
  const StretchTracker tracker(g);
  g.delete_node(1);
  EXPECT_DOUBLE_EQ(tracker.stretch_stats(g).max, 2.0);  // (0,2): 4/2
}

TEST(Stretch, HealedEdgeRestoresStretch) {
  Graph g = graph::cycle_graph(6);
  const StretchTracker tracker(g);
  g.delete_node(1);
  g.add_edge(0, 2);
  EXPECT_DOUBLE_EQ(tracker.stretch_stats(g).max, 1.0);
}

TEST(Stretch, DisconnectedIsInfinite) {
  Graph g = graph::path_graph(4);
  const StretchTracker tracker(g);
  g.delete_node(1);
  const StretchStats stats = tracker.stretch_stats(g);
  EXPECT_TRUE(std::isinf(stats.max));
  EXPECT_TRUE(std::isinf(stats.average));
}

TEST(Stretch, FewAliveNodesIsZero) {
  Graph g = graph::path_graph(3);
  const StretchTracker tracker(g);
  g.delete_node(0);
  g.delete_node(1);
  EXPECT_DOUBLE_EQ(tracker.stretch_stats(g).max, 0.0);
}

TEST(Stretch, AverageBelowMax) {
  Graph g = graph::cycle_graph(8);
  const StretchTracker tracker(g);
  g.delete_node(1);
  g.add_edge(0, 2);  // partial repair elsewhere still shifts distances
  g.delete_node(5);
  g.add_edge(4, 6);
  // One pass serves both figures; no second APSP.
  const StretchStats stats = tracker.stretch_stats(g);
  EXPECT_LE(stats.average, stats.max);
  // Chord edges can shrink distances below the original, so the average
  // may dip under 1; it must stay positive and finite.
  EXPECT_GT(stats.average, 0.0);
  EXPECT_FALSE(std::isinf(stats.average));
}

TEST(Stretch, StatsMatchPerPairBfsFold) {
  // Known answer: one BFS per alive pair over the frozen denominators.
  // The max is the same IEEE division either way, so it matches
  // exactly; the average sums in another order.
  dash::util::Rng rng(17);
  Graph g = graph::barabasi_albert(48, 2, rng);
  const StretchTracker tracker(g);
  for (const NodeId victim : {0, 3}) {  // a hub first: chains stretch
    const auto survivors = g.delete_node(victim);
    for (std::size_t i = 1; i < survivors.size(); ++i) {
      g.add_edge(survivors[i - 1], survivors[i]);
    }
  }
  const std::vector<NodeId> alive = g.alive_nodes();
  double max = 0.0;
  double sum = 0.0;
  std::size_t pairs = 0;
  graph::TraversalScratch scratch;
  for (std::size_t i = 0; i < alive.size(); ++i) {
    for (std::size_t j = i + 1; j < alive.size(); ++j) {
      const std::uint32_t dt =
          graph::bfs_distance(g.flat_view(), alive[i], alive[j], scratch);
      ASSERT_NE(dt, graph::kUnreachable);
      const double ratio =
          static_cast<double>(dt) /
          static_cast<double>(tracker.original_distance(alive[i], alive[j]));
      max = std::max(max, ratio);
      sum += ratio;
      ++pairs;
    }
  }
  const StretchStats stats = tracker.stretch_stats(g);
  EXPECT_EQ(stats.max, max);
  EXPECT_NEAR(stats.average, sum / static_cast<double>(pairs), 1e-12);
  EXPECT_GT(stats.max, 1.0);
}

TEST(Stretch, MultiWaveDisconnectedIsInfinite) {
  // 129 alive sources span three 64-source waves; the cut at node 64
  // separates the first wave's sources from every later one.
  Graph g = graph::path_graph(130);
  const StretchTracker tracker(g);
  g.delete_node(64);
  const StretchStats stats = tracker.stretch_stats(g);
  EXPECT_TRUE(std::isinf(stats.max));
  EXPECT_TRUE(std::isinf(stats.average));
}

TEST(Stretch, FewAliveNodesStatsZero) {
  Graph g = graph::path_graph(3);
  const StretchTracker tracker(g);
  g.delete_node(0);
  g.delete_node(1);
  const StretchStats stats = tracker.stretch_stats(g);
  EXPECT_DOUBLE_EQ(stats.max, 0.0);
  EXPECT_DOUBLE_EQ(stats.average, 0.0);
}

TEST(Stretch, RequiresConnectedBaseline) {
  Graph g(3);
  g.add_edge(0, 1);
  EXPECT_DEATH(StretchTracker tracker(g), "connected");
}

}  // namespace
}  // namespace dash::analysis
