#include "graph/traversal.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "graph/generators.h"
#include "util/rng.h"

namespace dash::graph {
namespace {

/// Single-source distances on the graph's flat view, one entry per id
/// (kUnreachable for dead or unreachable nodes).
std::vector<std::uint32_t> distances(const Graph& g, NodeId src) {
  TraversalScratch scratch;
  bfs_distances(g.flat_view(), src, scratch);
  std::vector<std::uint32_t> dist(g.num_nodes(), kUnreachable);
  for (NodeId v : scratch.visited()) dist[v] = scratch.distance(v);
  return dist;
}

std::uint32_t distance(const Graph& g, NodeId src, NodeId dst) {
  TraversalScratch scratch;
  return bfs_distance(g.flat_view(), src, dst, scratch);
}

/// Max BFS distance from `src`: the last node a BFS visits is a
/// farthest one.
std::uint32_t eccentricity(const Graph& g, NodeId src) {
  TraversalScratch scratch;
  bfs_distances(g.flat_view(), src, scratch);
  return scratch.distance(scratch.visited().back());
}

/// Max eccentricity; kUnreachable when the graph is disconnected.
std::uint32_t diameter(const Graph& g) {
  if (!is_connected(g)) return kUnreachable;
  std::uint32_t diam = 0;
  for (NodeId v : g.alive_nodes()) diam = std::max(diam, eccentricity(g, v));
  return diam;
}

TEST(Bfs, DistancesOnPath) {
  const Graph g = path_graph(5);
  const auto dist = distances(g, 0);
  for (NodeId v = 0; v < 5; ++v) EXPECT_EQ(dist[v], v);
}

TEST(Bfs, UnreachableAndDeadNodes) {
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(2, 3);
  const auto dist = distances(g, 0);
  EXPECT_EQ(dist[1], 1u);
  EXPECT_EQ(dist[2], kUnreachable);
  g.delete_node(1);
  const auto dist2 = distances(g, 0);
  EXPECT_EQ(dist2[1], kUnreachable);
}

TEST(Bfs, PairDistanceEarlyExit) {
  const Graph g = cycle_graph(10);
  EXPECT_EQ(distance(g, 0, 5), 5u);
  EXPECT_EQ(distance(g, 0, 9), 1u);
  EXPECT_EQ(distance(g, 3, 3), 0u);
}

TEST(Bfs, PairDistanceDisconnected) {
  Graph g(3);
  g.add_edge(0, 1);
  EXPECT_EQ(distance(g, 0, 2), kUnreachable);
}

TEST(Connectivity, DetectsDisconnect) {
  Graph g = path_graph(5);
  EXPECT_TRUE(is_connected(g));
  g.delete_node(2);
  EXPECT_FALSE(is_connected(g));
}

TEST(Connectivity, TrivialCases) {
  Graph empty(0);
  EXPECT_TRUE(is_connected(empty));
  Graph one(1);
  EXPECT_TRUE(is_connected(one));
  Graph two(2);
  EXPECT_FALSE(is_connected(two));
}

TEST(Components, LabelsAndSizes) {
  Graph g(6);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(3, 4);
  const auto comps = connected_components(g);
  EXPECT_EQ(comps.count(), 3u);  // {0,1,2}, {3,4}, {5}
  EXPECT_EQ(comps.largest(), 3u);
  EXPECT_EQ(comps.label[0], comps.label[2]);
  EXPECT_NE(comps.label[0], comps.label[3]);
  EXPECT_EQ(comps.sizes[comps.label[5]], 1u);
}

TEST(Components, SkipsDeadNodes) {
  Graph g = path_graph(3);
  g.delete_node(1);
  const auto comps = connected_components(g);
  EXPECT_EQ(comps.count(), 2u);
  EXPECT_EQ(comps.label[1], kInvalidComponent);
}

TEST(Eccentricity, StarCenterVsLeaf) {
  const Graph g = star_graph(10);
  EXPECT_EQ(eccentricity(g, 0), 1u);
  EXPECT_EQ(eccentricity(g, 5), 2u);
}

TEST(Diameter, KnownValues) {
  EXPECT_EQ(diameter(path_graph(6)), 5u);
  EXPECT_EQ(diameter(cycle_graph(6)), 3u);
  EXPECT_EQ(diameter(complete_graph(5)), 1u);
  EXPECT_EQ(diameter(star_graph(7)), 2u);
}

TEST(Diameter, DisconnectedIsUnreachable) {
  Graph g(3);
  g.add_edge(0, 1);
  EXPECT_EQ(diameter(g), kUnreachable);
}

TEST(AllPairs, MatchesSingleSource) {
  dash::util::Rng rng(99);
  const Graph g = barabasi_albert(40, 2, rng);
  const auto mat = all_pairs_distances(g);
  for (NodeId v = 0; v < g.num_nodes(); v += 7) {
    const auto dist = distances(g, v);
    for (NodeId u = 0; u < g.num_nodes(); ++u) {
      EXPECT_EQ(mat[v * g.num_nodes() + u], dist[u]);
    }
  }
}

TEST(AllPairs, DeadRowsUnreachable) {
  Graph g = path_graph(3);
  g.delete_node(0);
  const auto mat = all_pairs_distances(g);
  for (NodeId u = 0; u < 3; ++u) EXPECT_EQ(mat[0 * 3 + u], kUnreachable);
  EXPECT_EQ(mat[1 * 3 + 2], 1u);
}

}  // namespace
}  // namespace dash::graph
