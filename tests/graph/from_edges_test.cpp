// Graph::from_edges, the one bulk construction path, against the
// edge-by-edge build it stands for: the same lists, edge count and
// membership answers from random edge lists with repeats in both
// orientations and isolated ids; the same behavior under one random
// mutation sequence afterwards, with a patched FlatView equal to a full
// rebuild after every step; blocks laid out once with no free block;
// and the aborts add_edge has.
#include <algorithm>
#include <set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "graph/flat_view.h"
#include "graph/graph.h"
#include "util/rng.h"

namespace dash::graph {
namespace {

/// A random edge list on n ids: repeated edges, some reversed, and the
/// top quarter of the ids never listed.
std::vector<NodeId> random_endpoints(std::size_t n, util::Rng& rng) {
  const std::size_t listed = n - n / 4;
  std::vector<NodeId> endpoints;
  const auto edges = static_cast<std::size_t>(rng.below(3 * n + 1));
  for (std::size_t i = 0; i < edges; ++i) {
    const auto a = static_cast<NodeId>(rng.below(listed));
    const auto b = static_cast<NodeId>(rng.below(listed));
    if (a == b) continue;
    endpoints.insert(endpoints.end(), {a, b});
    if (rng.chance(0.2)) endpoints.insert(endpoints.end(), {b, a});
    if (rng.chance(0.1)) endpoints.insert(endpoints.end(), {a, b});
  }
  return endpoints;
}

Graph edge_by_edge(std::size_t n, const std::vector<NodeId>& endpoints) {
  Graph g(n);
  for (std::size_t i = 0; i < endpoints.size(); i += 2) {
    g.add_edge(endpoints[i], endpoints[i + 1]);
  }
  return g;
}

void expect_same_graph(const Graph& a, const Graph& b) {
  ASSERT_EQ(a.num_nodes(), b.num_nodes());
  ASSERT_EQ(a.num_alive(), b.num_alive());
  ASSERT_EQ(a.num_edges(), b.num_edges());
  for (NodeId v = 0; v < a.num_nodes(); ++v) {
    ASSERT_EQ(a.alive(v), b.alive(v)) << "node " << v;
    if (!a.alive(v)) continue;
    ASSERT_TRUE(std::ranges::equal(a.neighbors(v), b.neighbors(v)))
        << "node " << v;
    for (NodeId u = 0; u < a.num_nodes(); ++u) {
      ASSERT_EQ(a.has_edge(v, u), b.has_edge(v, u)) << v << "-" << u;
    }
  }
}

/// Refresh `view` (a patch whenever the touched log allows) and compare
/// it with a from-scratch rebuild of g.
void expect_patch_equals_rebuild(FlatView& view, const Graph& g) {
  view.refresh(g);
  FlatView full;
  full.rebuild(g);
  ASSERT_EQ(view.num_nodes(), full.num_nodes());
  ASSERT_EQ(view.num_alive(), full.num_alive());
  ASSERT_EQ(view.num_edge_entries(), full.num_edge_entries());
  for (NodeId v = 0; v < full.num_nodes(); ++v) {
    ASSERT_EQ(view.alive(v), full.alive(v)) << "node " << v;
    ASSERT_TRUE(std::ranges::equal(view.neighbors(v), full.neighbors(v)))
        << "node " << v;
  }
}

/// One random add_node, add_edge, remove_edge or delete_node, applied
/// alike to both graphs (which have the same alive ids).
void mutate_both(Graph& a, Graph& b, util::Rng& rng) {
  const auto op = rng.below(100);
  if (op < 10 || a.num_alive() < 2) {
    ASSERT_EQ(a.add_node(), b.add_node());
    return;
  }
  const NodeId x = a.kth_alive(rng.below(a.num_alive()));
  if (op < 25) {
    ASSERT_EQ(a.delete_node(x), b.delete_node(x));
    return;
  }
  const NodeId y = a.kth_alive(rng.below(a.num_alive()));
  if (x == y) return;
  if (op < 70) {
    ASSERT_EQ(a.add_edge(x, y), b.add_edge(x, y));
  } else {
    ASSERT_EQ(a.remove_edge(x, y), b.remove_edge(x, y));
  }
}

TEST(FromEdges, MatchesEdgeByEdgeBuildThroughMutations) {
  util::Rng rng(0xF20E);
  std::size_t patched = 0;
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t n = 1 + rng.below(60);
    const std::vector<NodeId> endpoints = random_endpoints(n, rng);
    Graph bulk = Graph::from_edges(n, endpoints);
    Graph reference = edge_by_edge(n, endpoints);
    ASSERT_NO_FATAL_FAILURE(expect_same_graph(bulk, reference))
        << "trial " << trial;
    EXPECT_EQ(bulk.slab_free_entries(), 0u);
    EXPECT_EQ(bulk.touched_begin(), bulk.touched_end());

    FlatView bulk_view;
    FlatView reference_view;
    for (int step = 0; step < 60; ++step) {
      ASSERT_NO_FATAL_FAILURE(mutate_both(bulk, reference, rng));
      ASSERT_NO_FATAL_FAILURE(expect_same_graph(bulk, reference))
          << "trial " << trial << " step " << step;
      ASSERT_NO_FATAL_FAILURE(expect_patch_equals_rebuild(bulk_view, bulk));
      ASSERT_NO_FATAL_FAILURE(
          expect_patch_equals_rebuild(reference_view, reference));
    }
    patched += bulk_view.patched_refreshes();
  }
  EXPECT_GT(patched, 0u);  // the patch path ran on bulk-built graphs
}

TEST(FromEdges, LaysEachBlockOutOnceAtItsFinalCapacity) {
  // Without repeats, every block gets the capacity the edge-by-edge
  // build reaches by doubling, but none of the blocks that build left
  // behind on the free lists.
  util::Rng rng(0xB10C);
  const std::size_t n = 500;
  std::set<std::pair<NodeId, NodeId>> seen;
  std::vector<NodeId> endpoints;
  for (int i = 0; i < 2000; ++i) {
    // Skewed toward low ids, so hub blocks double several times.
    const auto a = static_cast<NodeId>(rng.below(1 + rng.below(n)));
    const auto b = static_cast<NodeId>(rng.below(n));
    if (a == b || !seen.insert(std::minmax(a, b)).second) continue;
    endpoints.insert(endpoints.end(), {a, b});
  }
  const Graph bulk = Graph::from_edges(n, endpoints);
  const Graph reference = edge_by_edge(n, endpoints);
  ASSERT_GT(reference.slab_free_entries(), 0u);
  EXPECT_EQ(bulk.slab_free_entries(), 0u);
  EXPECT_EQ(bulk.slab_size(),
            reference.slab_size() - reference.slab_free_entries());
  EXPECT_EQ(bulk.num_edges(), endpoints.size() / 2);
  EXPECT_TRUE(bulk.same_topology(reference));
}

TEST(FromEdges, EmptyListGivesIsolatedNodes) {
  const Graph g = Graph::from_edges(5, std::vector<NodeId>{});
  EXPECT_EQ(g.num_alive(), 5u);
  EXPECT_EQ(g.num_edges(), 0u);
  EXPECT_EQ(g.slab_size(), 0u);
  EXPECT_TRUE(Graph::from_edges(0, std::vector<NodeId>{}).same_topology(
      Graph(0)));
}

TEST(FromEdges, AbortsWhereAddEdgeAborts) {
  Graph g(3);
  EXPECT_DEATH(g.add_edge(1, 1), "self-loops are not representable");
  EXPECT_DEATH(Graph::from_edges(3, std::vector<NodeId>{0, 1, 1, 1}),
               "self-loops are not representable");
  EXPECT_DEATH(g.add_edge(0, 3), "node id out of range");
  EXPECT_DEATH(Graph::from_edges(3, std::vector<NodeId>{0, 1, 3, 0}),
               "node id out of range");
  EXPECT_DEATH(Graph::from_edges(3, std::vector<NodeId>{0, 1, 2}),
               "two ids per edge");
}

}  // namespace
}  // namespace dash::graph
