// reconnect_test.cpp -- the tree shapes of core::reconnect, the one loop
// every healer adds its edges through, read back as slot pairs from a
// heal over isolated nodes.
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "core/healers.h"
#include "util/rng.h"

namespace dash::core {
namespace {

using Edges = std::vector<std::pair<std::size_t, std::size_t>>;

/// The (parent, child) slot pairs reconnect() adds, in the order it adds
/// them, for a `shape` tree over k isolated nodes placed in reverse id
/// order (so slot order is not id order).
Edges shape_edges(std::size_t k, TreeShape shape) {
  Graph g(k);
  util::Rng rng(k);
  HealingState state(g, rng);
  std::vector<NodeId> order;
  for (std::size_t i = k; i > 0; --i) order.push_back(NodeId(i - 1));
  const HealAction action = reconnect(g, state, order, shape);
  EXPECT_EQ(action.reconnection_set_size, k);
  // Every node held its own id; one minimum survives.
  EXPECT_EQ(action.ids_rewritten, k == 0 ? 0 : k - 1);
  EXPECT_EQ(g.num_edges(), action.new_graph_edges.size());
  EXPECT_EQ(state.num_healing_edges(), action.new_graph_edges.size());
  Edges slots;
  for (auto [a, b] : action.new_graph_edges) {
    slots.emplace_back(k - 1 - a, k - 1 - b);
  }
  return slots;
}

/// Depth of every slot of a tree whose edges come parent-first in slot
/// order.
std::vector<std::size_t> depths(std::size_t k, const Edges& edges) {
  std::vector<std::size_t> depth(k, 0);
  for (auto [parent, child] : edges) depth[child] = depth[parent] + 1;
  return depth;
}

TEST(BinaryTree, SmallSizes) {
  EXPECT_TRUE(shape_edges(0, TreeShape::kBinary).empty());
  EXPECT_TRUE(shape_edges(1, TreeShape::kBinary).empty());
  EXPECT_EQ(shape_edges(2, TreeShape::kBinary), (Edges{{0, 1}}));
  EXPECT_EQ(shape_edges(4, TreeShape::kBinary),
            (Edges{{0, 1}, {0, 2}, {1, 3}}));
}

TEST(BinaryTree, EdgeCountIsKMinusOne) {
  for (std::size_t k : {2u, 3u, 7u, 16u, 33u}) {
    EXPECT_EQ(shape_edges(k, TreeShape::kBinary).size(), k - 1);
  }
}

TEST(BinaryTree, MaxDegreeIsThree) {
  // Every slot appears in at most 3 edges (parent + two children).
  constexpr std::size_t k = 25;
  std::vector<int> deg(k, 0);
  for (auto [a, b] : shape_edges(k, TreeShape::kBinary)) {
    ++deg[a];
    ++deg[b];
  }
  for (auto d : deg) EXPECT_LE(d, 3);
  EXPECT_LE(deg[0], 2);  // root has no parent
}

TEST(BinaryTree, AtLeastHalfAreLeaves) {
  // Lemma-relevant: the highest-delta half of DASH's order gains no
  // degree.
  for (std::size_t k = 1; k <= 40; ++k) {
    std::vector<int> children(k, 0);
    for (auto [a, b] : shape_edges(k, TreeShape::kBinary)) ++children[a];
    std::size_t leaves = 0;
    for (int c : children) leaves += c == 0;
    EXPECT_GE(2 * leaves, k) << "k=" << k;
  }
}

TEST(BinaryTree, LeafPredicateMatchesEdges) {
  // Slot i is a leaf exactly when its first child's slot 2i + 1 is out
  // of range.
  constexpr std::size_t k = 13;
  std::vector<int> children(k, 0);
  for (auto [a, b] : shape_edges(k, TreeShape::kBinary)) ++children[a];
  for (std::size_t i = 0; i < k; ++i) {
    EXPECT_EQ(2 * i + 1 >= k, children[i] == 0) << "i=" << i;
  }
}

TEST(BinaryTree, DepthOfSlots) {
  constexpr std::size_t k = 8;
  EXPECT_EQ(depths(k, shape_edges(k, TreeShape::kBinary)),
            (std::vector<std::size_t>{0, 1, 1, 2, 2, 2, 2, 3}));
}

TEST(BinaryTree, DepthIsLogarithmic) {
  // Depth of the last slot of a k-slot complete tree is floor(log2(k)).
  for (std::size_t k : {2u, 3u, 4u, 8u, 15u, 16u, 100u}) {
    const std::size_t depth =
        depths(k, shape_edges(k, TreeShape::kBinary)).back();
    EXPECT_LE(1u << depth, k);
    EXPECT_GT(1u << (depth + 1), k / 2);
  }
}

TEST(Line, EdgesFormAPath) {
  EXPECT_TRUE(shape_edges(1, TreeShape::kPath).empty());
  EXPECT_EQ(shape_edges(4, TreeShape::kPath),
            (Edges{{0, 1}, {1, 2}, {2, 3}}));
}

TEST(Star, EdgesCenterEverywhere) {
  const Edges edges = shape_edges(5, TreeShape::kStar);
  EXPECT_EQ(edges.size(), 4u);
  for (auto [c, x] : edges) {
    EXPECT_EQ(c, 0u);
    EXPECT_NE(x, 0u);
  }
}

TEST(Star, TrivialSizes) {
  EXPECT_TRUE(shape_edges(0, TreeShape::kStar).empty());
  EXPECT_TRUE(shape_edges(1, TreeShape::kStar).empty());
}

}  // namespace
}  // namespace dash::core
