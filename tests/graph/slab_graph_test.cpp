// Slab/pool layout mechanics of graph::Graph: block growth and
// recycling, the touched log, copy/uid semantics, and a randomized
// differential against a naive reference model -- the behavioral
// contract the historical vector-of-vectors layout set.
#include <algorithm>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "graph/graph.h"
#include "util/rng.h"

namespace dash::graph {
namespace {

std::vector<NodeId> nbrs_of(const Graph& g, NodeId v) {
  const auto span = g.neighbors(v);
  return {span.begin(), span.end()};
}

/// The alive index and the max-degree tree against the scans they
/// replace: kth_alive(r) for every rank, argmax_degree (lowest id on
/// ties), and alive() past the id space.
void expect_indexes_match_scan(const Graph& g) {
  std::vector<NodeId> alive;
  NodeId hub = kInvalidNode;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (!g.alive(v)) continue;
    alive.push_back(v);
    if (hub == kInvalidNode || g.degree(v) > g.degree(hub)) hub = v;
  }
  ASSERT_EQ(alive.size(), g.num_alive());
  for (std::size_t r = 0; r < alive.size(); ++r) {
    ASSERT_EQ(g.kth_alive(r), alive[r]) << "rank " << r;
  }
  ASSERT_EQ(g.argmax_degree(), hub);
  ASSERT_FALSE(g.alive(static_cast<NodeId>(g.num_nodes())));
  ASSERT_FALSE(g.alive(kInvalidNode));
}

/// One random mutation of any kind (edge toggle, node delete or add).
void mutate(Graph& g, util::Rng& rng) {
  const auto op = rng.below(100);
  if (op < 8 || g.num_alive() < 4) {
    g.add_node();
    return;
  }
  const NodeId a = g.kth_alive(rng.below(g.num_alive()));
  if (op < 20) {
    g.delete_node(a);
    return;
  }
  const NodeId b = g.kth_alive(rng.below(g.num_alive()));
  if (a == b) return;
  if (!g.remove_edge(a, b)) g.add_edge(a, b);
}

TEST(SlabGraph, BlocksDoubleAndStaySorted) {
  Graph g(20);
  // Descending inserts exercise the insertion hole at index 0 through
  // several doublings (cap 2 -> 4 -> 8 -> 16).
  for (NodeId u = 10; u >= 1; --u) g.add_edge(0, u);
  std::vector<NodeId> want;
  for (NodeId u = 1; u <= 10; ++u) want.push_back(u);
  EXPECT_EQ(nbrs_of(g, 0), want);
  EXPECT_EQ(g.degree(0), 10u);
}

TEST(SlabGraph, DeleteRecyclesBlocksAndReusesThem) {
  Graph g(10);
  for (NodeId u = 1; u <= 8; ++u) g.add_edge(0, u);
  const std::size_t grown = g.slab_size();
  EXPECT_EQ(g.slab_free_entries(),
            grown - (8 /*node 0*/ + 8 * 2 /*leaves' cap-2 blocks*/));
  const std::size_t free_before = g.slab_free_entries();
  g.delete_node(0);
  // Node 0's cap-8 block is back on the free lists; the surviving
  // leaves keep their (now empty) cap-2 blocks. Nothing shrank.
  EXPECT_EQ(g.slab_size(), grown);
  EXPECT_EQ(g.slab_free_entries(), free_before + 8);
  // A new hub rebuilt to the same shape must reuse recycled blocks
  // instead of extending the slab.
  for (NodeId u = 2; u <= 8; ++u) g.add_edge(1, u);
  EXPECT_EQ(g.slab_size(), grown);
}

TEST(SlabGraph, TouchedLogAdvancesAndCompacts) {
  Graph g(4);
  const std::uint64_t end0 = g.touched_end();
  g.add_edge(0, 1);
  EXPECT_EQ(g.touched_end(), end0 + 2);  // both endpoints logged
  EXPECT_LE(g.touched_end() - g.touched_begin(), g.touched_log().size());
  // Force compaction: the retained window is capped at max(256, 2n).
  for (int i = 0; i < 200; ++i) {
    g.add_edge(2, 3);
    g.remove_edge(2, 3);
  }
  EXPECT_GT(g.touched_begin(), 0u);
  EXPECT_LE(g.touched_log().size(), 256u);
  EXPECT_EQ(g.touched_end() - g.touched_begin(), g.touched_log().size());
}

TEST(SlabGraph, CopiesGetFreshUidsAndIndependentState) {
  Graph a(4);
  a.add_edge(0, 1);
  Graph b(a);
  EXPECT_NE(a.uid(), b.uid());
  EXPECT_TRUE(a.same_topology(b));
  b.add_edge(2, 3);
  EXPECT_FALSE(a.same_topology(b));
  EXPECT_FALSE(a.has_edge(2, 3));

  Graph c(1);
  c = a;
  EXPECT_NE(c.uid(), a.uid());
  EXPECT_TRUE(c.same_topology(a));
}

TEST(SlabGraph, RandomizedDifferentialAgainstSetModel) {
  util::Rng rng(0x51ab);
  Graph g(24);
  std::vector<std::set<NodeId>> model(24);
  std::vector<bool> alive(24, true);
  std::size_t edges = 0;

  for (int step = 0; step < 4000; ++step) {
    const auto op = rng.below(100);
    if (op < 45) {  // add_edge
      const NodeId a = static_cast<NodeId>(rng.below(model.size()));
      const NodeId b = static_cast<NodeId>(rng.below(model.size()));
      if (a == b || !alive[a] || !alive[b]) continue;
      const bool fresh = g.add_edge(a, b);
      EXPECT_EQ(fresh, model[a].insert(b).second);
      model[b].insert(a);
      if (fresh) ++edges;
    } else if (op < 70) {  // remove_edge
      const NodeId a = static_cast<NodeId>(rng.below(model.size()));
      const NodeId b = static_cast<NodeId>(rng.below(model.size()));
      if (a == b || !alive[a] || !alive[b]) continue;
      const bool had = g.remove_edge(a, b);
      EXPECT_EQ(had, model[a].erase(b) > 0);
      model[b].erase(a);
      if (had) --edges;
    } else if (op < 85) {  // delete_node
      const NodeId v = static_cast<NodeId>(rng.below(model.size()));
      if (!alive[v]) continue;
      const auto survivors = g.delete_node(v);
      EXPECT_EQ(survivors,
                std::vector<NodeId>(model[v].begin(), model[v].end()));
      for (const NodeId u : model[v]) model[u].erase(v);
      edges -= model[v].size();
      model[v].clear();
      alive[v] = false;
    } else {  // add_node
      const NodeId v = g.add_node();
      EXPECT_EQ(v, model.size());
      model.emplace_back();
      alive.push_back(true);
    }
    ASSERT_NO_FATAL_FAILURE(expect_indexes_match_scan(g))
        << "after step " << step;

    if (step % 97 == 0) {  // full cross-check, amortized
      ASSERT_EQ(g.num_edges(), edges);
      for (NodeId v = 0; v < model.size(); ++v) {
        ASSERT_EQ(g.alive(v), static_cast<bool>(alive[v]));
        if (!alive[v]) continue;
        ASSERT_EQ(nbrs_of(g, v),
                  std::vector<NodeId>(model[v].begin(), model[v].end()))
            << "node " << v << " at step " << step;
      }
    }
  }
}

TEST(SlabGraph, CopyKeepsIndexesApartFromItsSource) {
  util::Rng rng(0xc0b1);
  Graph a(300);
  for (int i = 0; i < 600; ++i) mutate(a, rng);
  (void)a.argmax_degree();  // the source's tree is built before the copy
  Graph b(a);
  Graph c;
  c = a;
  for (int i = 0; i < 400; ++i) {
    mutate(a, rng);
    mutate(b, rng);
    mutate(b, rng);
    mutate(c, rng);
    ASSERT_NO_FATAL_FAILURE(expect_indexes_match_scan(a)) << "step " << i;
    ASSERT_NO_FATAL_FAILURE(expect_indexes_match_scan(b)) << "step " << i;
    ASSERT_NO_FATAL_FAILURE(expect_indexes_match_scan(c)) << "step " << i;
  }
}

TEST(SlabGraph, MovedGraphKeepsIndexes) {
  util::Rng rng(0x30fe);
  Graph a(200);
  for (int i = 0; i < 300; ++i) mutate(a, rng);
  (void)a.argmax_degree();
  Graph b(std::move(a));
  ASSERT_NO_FATAL_FAILURE(expect_indexes_match_scan(b));
  Graph c(5);
  (void)c.argmax_degree();
  c = std::move(b);
  for (int i = 0; i < 300; ++i) {
    mutate(c, rng);
    ASSERT_NO_FATAL_FAILURE(expect_indexes_match_scan(c)) << "step " << i;
  }
}

TEST(SlabGraph, ArgmaxRebuildsAfterTheLogCompactsPastIt) {
  util::Rng rng(0x70c5);
  Graph g(64);
  for (int i = 0; i < 200; ++i) mutate(g, rng);
  for (int round = 0; round < 6; ++round) {
    const std::uint64_t synced_at = g.touched_end();
    ASSERT_NO_FATAL_FAILURE(expect_indexes_match_scan(g));
    // Far more mutations than the touched log retains (~2n entries).
    while (g.touched_begin() <= synced_at) mutate(g, rng);
    for (int i = 0; i < 50; ++i) mutate(g, rng);
  }
  ASSERT_NO_FATAL_FAILURE(expect_indexes_match_scan(g));
}

TEST(SlabGraph, ArgmaxRebuildsAfterAShortWindowStraddlesCompaction) {
  // A compaction drops the older half of the touched log, so a window
  // short enough for the cost rule to patch (at most 2 * leaves /
  // bit_width(leaves) = 32 entries here) can no longer straddle one.
  // This window does: the tree syncs right before the hub's deletion,
  // early in the half a compaction drops, so a tree patched from the
  // new log's start would keep the dead hub on top. 127 ids: 128
  // leaves and a touched-log cap of max(256, 2n) = 256, of which a
  // compaction keeps the newest 128.
  Graph g(127);
  for (NodeId v = 1; v <= 20; ++v) g.add_edge(0, v);
  const auto toggle = [&g] {
    if (!g.remove_edge(1, 2)) g.add_edge(1, 2);
  };
  ASSERT_EQ(g.argmax_degree(), 0u);  // sync right before the deletion
  const std::uint64_t synced_at = g.touched_end();
  g.delete_node(0);
  while (g.touched_begin() == 0) toggle();  // the first compaction
  ASSERT_EQ(g.touched_begin(), 128u);       // the older half went
  ASSERT_GT(g.touched_begin(), synced_at);
  ASSERT_NO_FATAL_FAILURE(expect_indexes_match_scan(g));
}

TEST(SlabGraph, KthAliveAcrossWordAndCapacityBoundaries) {
  // 257 ids: five alive words, Fenwick capacity eight. Deleting every
  // id of the middle words leaves ranks that only a tree propagated up
  // to the capacity (not the last populated word) resolves.
  Graph g(257);
  for (NodeId v = 64; v < 192; ++v) g.delete_node(v);
  ASSERT_NO_FATAL_FAILURE(expect_indexes_match_scan(g));
  for (int i = 0; i < 300; ++i) g.add_node();
  ASSERT_NO_FATAL_FAILURE(expect_indexes_match_scan(g));
  EXPECT_EQ(g.kth_alive(64), 192u);
  EXPECT_EQ(g.kth_alive(g.num_alive() - 1), g.num_nodes() - 1);
}

}  // namespace
}  // namespace dash::graph
