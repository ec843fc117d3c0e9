// flat_traversal_test.cpp -- the flat traversal engine: FlatView CSR
// snapshots (generation-keyed lazy rebuild), TraversalScratch reuse,
// and the scratch-taking bfs/connectivity/components overloads,
// differentially checked against a verbatim copy of the legacy
// per-call-allocating implementations.
#include <deque>
#include <gtest/gtest.h>

#include "graph/generators.h"
#include "graph/traversal.h"
#include "util/rng.h"

namespace dash::graph {
namespace {

using dash::util::Rng;

// ---- legacy reference implementations (pre-flat-engine, verbatim) ----

std::vector<std::uint32_t> ref_bfs_distances(const Graph& g, NodeId src) {
  std::vector<std::uint32_t> dist(g.num_nodes(), kUnreachable);
  std::deque<NodeId> frontier;
  dist[src] = 0;
  frontier.push_back(src);
  while (!frontier.empty()) {
    const NodeId v = frontier.front();
    frontier.pop_front();
    const std::uint32_t next = dist[v] + 1;
    for (NodeId u : g.neighbors(v)) {
      if (dist[u] == kUnreachable) {
        dist[u] = next;
        frontier.push_back(u);
      }
    }
  }
  return dist;
}

Components ref_connected_components(const Graph& g) {
  Components out;
  out.label.assign(g.num_nodes(), kInvalidComponent);
  std::deque<NodeId> frontier;
  for (NodeId root = 0; root < g.num_nodes(); ++root) {
    if (!g.alive(root) || out.label[root] != kInvalidComponent) continue;
    const auto comp = static_cast<std::uint32_t>(out.sizes.size());
    out.sizes.push_back(0);
    out.label[root] = comp;
    frontier.push_back(root);
    while (!frontier.empty()) {
      const NodeId v = frontier.front();
      frontier.pop_front();
      ++out.sizes[comp];
      for (NodeId u : g.neighbors(v)) {
        if (out.label[u] == kInvalidComponent) {
          out.label[u] = comp;
          frontier.push_back(u);
        }
      }
    }
  }
  return out;
}

/// Flat BFS distances materialized for comparison with the reference.
std::vector<std::uint32_t> flat_distances(const Graph& g, NodeId src,
                                          TraversalScratch& scratch) {
  bfs_distances(g.flat_view(), src, scratch);
  std::vector<std::uint32_t> dist(g.num_nodes(), kUnreachable);
  for (NodeId v = 0; v < g.num_nodes(); ++v) dist[v] = scratch.distance(v);
  return dist;
}

void expect_engine_matches_reference(const Graph& g,
                                     TraversalScratch& scratch,
                                     const std::string& what) {
  const auto alive = g.alive_nodes();
  for (std::size_t i = 0; i < alive.size(); i += 1 + alive.size() / 7) {
    const NodeId src = alive[i];
    EXPECT_EQ(flat_distances(g, src, scratch), ref_bfs_distances(g, src))
        << what << " src=" << src;
  }
  const Components want = ref_connected_components(g);
  const Components got = connected_components(g);
  EXPECT_EQ(got.label, want.label) << what;
  EXPECT_EQ(got.sizes, want.sizes) << what;
}

// ---- FlatView snapshot semantics -------------------------------------

TEST(FlatView, MirrorsAdjacencyAndAliveSet) {
  Rng rng(5);
  Graph g = barabasi_albert(64, 2, rng);
  g.delete_node(7);
  const FlatView& view = g.flat_view();
  EXPECT_EQ(view.num_nodes(), g.num_nodes());
  EXPECT_EQ(view.num_alive(), g.num_alive());
  std::vector<NodeId> listed;
  for (NodeId v : view.alive_set()) listed.push_back(v);
  EXPECT_EQ(listed, g.alive_nodes());
  EXPECT_EQ(view.num_edge_entries(), 2 * g.num_edges());
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (!g.alive(v)) {
      EXPECT_TRUE(view.neighbors(v).empty());
      continue;
    }
    const auto span = view.neighbors(v);
    ASSERT_EQ(span.size(), g.degree(v));
    for (std::size_t i = 0; i < span.size(); ++i) {
      EXPECT_EQ(span[i], g.neighbors(v)[i]);
    }
  }
}

TEST(FlatView, GenerationTracksRealMutationsOnly) {
  Graph g(4);
  const std::uint64_t g0 = g.generation();
  ASSERT_TRUE(g.add_edge(0, 1));
  EXPECT_GT(g.generation(), g0);
  const std::uint64_t g1 = g.generation();
  EXPECT_FALSE(g.add_edge(0, 1));  // duplicate: no topology change
  EXPECT_EQ(g.generation(), g1);
  EXPECT_FALSE(g.remove_edge(2, 3));  // absent: no topology change
  EXPECT_EQ(g.generation(), g1);
  g.add_node();
  EXPECT_GT(g.generation(), g1);
  const std::uint64_t g2 = g.generation();
  g.delete_node(0);
  EXPECT_GT(g.generation(), g2);
}

TEST(FlatView, CachedViewRebuildsLazilyOnMutation) {
  Graph g = path_graph(6);
  const FlatView& v1 = g.flat_view();
  EXPECT_TRUE(v1.matches(g.generation()));
  EXPECT_EQ(&v1, &g.flat_view());  // no mutation: same snapshot object
  EXPECT_EQ(g.flat_view().neighbors(2).size(), 2u);
  g.delete_node(3);
  const FlatView& v2 = g.flat_view();
  EXPECT_TRUE(v2.matches(g.generation()));
  EXPECT_EQ(v2.num_alive(), 5u);
  EXPECT_EQ(v2.neighbors(2).size(), 1u);
  EXPECT_TRUE(v2.neighbors(3).empty());
}

TEST(FlatView, CopiedGraphKeepsIndependentSnapshot) {
  Graph g = cycle_graph(5);
  (void)g.flat_view();
  Graph copy = g;
  copy.delete_node(0);
  EXPECT_EQ(copy.flat_view().num_alive(), 4u);
  EXPECT_EQ(g.flat_view().num_alive(), 5u);
}

// ---- scratch-taking overloads vs the legacy reference ----------------

TEST(FlatTraversal, MatchesReferenceAcrossMutationSchedule) {
  Rng rng(99);
  Graph g = barabasi_albert(80, 2, rng);
  TraversalScratch scratch;
  expect_engine_matches_reference(g, scratch, "initial");
  for (int round = 0; round < 30; ++round) {
    const auto alive = g.alive_nodes();
    if (alive.size() <= 3) break;
    const NodeId victim =
        alive[static_cast<std::size_t>(rng.below(alive.size()))];
    const auto survivors = g.delete_node(victim);
    // Path-heal half the rounds; leave the graph fragmented otherwise.
    if (round % 2 == 0) {
      for (std::size_t i = 1; i < survivors.size(); ++i) {
        g.add_edge(survivors[i - 1], survivors[i]);
      }
    }
    expect_engine_matches_reference(
        g, scratch, "round " + std::to_string(round));
  }
}

TEST(FlatTraversal, ScratchReuseAcrossGraphsOfDifferentSizes) {
  TraversalScratch scratch;
  Rng rng(3);
  // Reuse one scratch over shrinking and growing id spaces; every run
  // must be as if the scratch were fresh.
  for (const std::size_t n : {40u, 8u, 120u, 16u}) {
    Graph g = barabasi_albert(n, 2, rng);
    EXPECT_EQ(flat_distances(g, 0, scratch), ref_bfs_distances(g, 0))
        << "n=" << n;
  }
}

TEST(FlatTraversal, EpochWrapStaysCorrect) {
  const Graph g = cycle_graph(9);
  const auto want = ref_bfs_distances(g, 4);
  TraversalScratch scratch;
  // The visited stamp is 8-bit: drive it through several wraps.
  for (int i = 0; i < 600; ++i) {
    ASSERT_EQ(flat_distances(g, 4, scratch), want) << "traversal " << i;
  }
}

TEST(FlatTraversal, VisitedIsLevelOrdered) {
  Rng rng(12);
  const Graph g = barabasi_albert(60, 2, rng);
  TraversalScratch scratch;
  const std::size_t seen = bfs_distances(g.flat_view(), 5, scratch);
  ASSERT_EQ(seen, scratch.visited().size());
  ASSERT_EQ(scratch.visited().front(), 5u);
  std::uint32_t prev = 0;
  for (const NodeId v : scratch.visited()) {
    EXPECT_GE(scratch.distance(v), prev);
    prev = scratch.distance(v);
  }
}

TEST(FlatTraversal, IsConnectedAndEccentricityAgree) {
  // The last node a BFS visits is a farthest one, so its depth is the
  // source's eccentricity.
  const auto expect_eccentricities = [](const Graph& g,
                                        TraversalScratch& scratch) {
    const auto alive = g.alive_nodes();
    for (std::size_t i = 0; i < alive.size(); i += 9) {
      const auto dist = ref_bfs_distances(g, alive[i]);
      std::uint32_t want = 0;
      for (NodeId v : alive) {
        if (dist[v] != kUnreachable) want = std::max(want, dist[v]);
      }
      bfs_distances(g.flat_view(), alive[i], scratch);
      EXPECT_EQ(scratch.distance(scratch.visited().back()), want);
    }
  };
  Rng rng(31);
  Graph g = barabasi_albert(50, 2, rng);
  TraversalScratch scratch;
  EXPECT_TRUE(is_connected(g.flat_view(), scratch));
  expect_eccentricities(g, scratch);
  g.delete_node(1);  // BA node 1 can articulate; either way compare
  EXPECT_EQ(is_connected(g.flat_view(), scratch), is_connected(g));
  expect_eccentricities(g, scratch);
}

TEST(FlatTraversal, BidirectionalDistanceMatchesReference) {
  // Pairs from several sources to every alive node, over a schedule
  // that fragments the graph on unhealed rounds: disconnected pairs
  // must come back kUnreachable, connected ones exact.
  Rng rng(41);
  Graph g = barabasi_albert(90, 2, rng);
  TraversalScratch scratch;
  for (int round = 0; round < 40; ++round) {
    const auto alive = g.alive_nodes();
    if (alive.size() <= 3) break;
    for (std::size_t i = 0; i < alive.size(); i += 1 + alive.size() / 5) {
      const auto want = ref_bfs_distances(g, alive[i]);
      for (NodeId v : alive) {
        ASSERT_EQ(bfs_distance(g.flat_view(), alive[i], v, scratch), want[v])
            << "round " << round << " pair " << alive[i] << "-" << v;
      }
    }
    const NodeId victim =
        alive[static_cast<std::size_t>(rng.below(alive.size()))];
    const auto survivors = g.delete_node(victim);
    if (round % 3 == 0) {
      for (std::size_t i = 1; i < survivors.size(); ++i) {
        g.add_edge(survivors[i - 1], survivors[i]);
      }
    }
  }
}

TEST(FlatTraversal, BidirectionalDistanceLeavesNoReadableState) {
  const Graph g = path_graph(6);
  TraversalScratch scratch;
  bfs_distances(g.flat_view(), 2, scratch);
  EXPECT_EQ(bfs_distance(g.flat_view(), 0, 5, scratch), 5u);
  EXPECT_EQ(bfs_distance(g.flat_view(), 4, 4, scratch), 0u);
  EXPECT_TRUE(scratch.visited().empty());
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    EXPECT_EQ(scratch.distance(v), kUnreachable) << v;
  }
  // The double epoch per query must survive the 8-bit wrap.
  for (int i = 0; i < 300; ++i) {
    ASSERT_EQ(bfs_distance(g.flat_view(), 5, 1, scratch), 4u) << i;
  }
}

TEST(FlatTraversal, ComponentsBufferReuse) {
  TraversalScratch scratch;
  Components comps;
  Graph g = path_graph(7);
  connected_components(g.flat_view(), scratch, comps);
  EXPECT_EQ(comps.count(), 1u);
  g.delete_node(3);
  connected_components(g.flat_view(), scratch, comps);
  EXPECT_EQ(comps.count(), 2u);
  EXPECT_EQ(comps.largest(), 3u);
  const Graph empty(0);
  connected_components(empty.flat_view(), scratch, comps);
  EXPECT_EQ(comps.count(), 0u);
}

}  // namespace
}  // namespace dash::graph
