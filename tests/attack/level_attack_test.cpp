#include "attack/level_attack.h"

#include <gtest/gtest.h>

#include <cmath>

#include "core/healers.h"
#include "graph/traversal.h"
#include "util/rng.h"

namespace dash::attack {
namespace {

using core::DeletionContext;
using core::HealingState;
using dash::util::Rng;
using graph::Graph;
using graph::NodeId;

/// Drive a LEVELATTACK schedule against a healer on an (M+2)-ary tree.
/// Returns the max delta ever observed.
std::uint32_t run_level_attack(std::size_t m, std::size_t depth,
                               core::HealingStrategy& healer,
                               std::uint64_t seed,
                               std::size_t* deletions_out = nullptr) {
  const auto tree = graph::complete_kary_tree(m + 2, depth);
  Graph g = tree.g;
  Rng rng(seed);
  HealingState st(g, rng);
  LevelAttack atk(tree, static_cast<std::uint32_t>(m));

  std::size_t deletions = 0;
  while (g.num_alive() > 1) {
    const NodeId v = atk.select(g, st);
    if (v == graph::kInvalidNode) break;
    const DeletionContext ctx = st.begin_deletion(g, v);
    g.delete_node(v);
    healer.heal(g, st, ctx);
    ++deletions;
    EXPECT_TRUE(graph::is_connected(g));
    // The healed graph must remain a tree for the attack's subtree
    // bookkeeping (and the paper's Lemma 10) to apply.
    EXPECT_EQ(g.num_edges(), g.num_alive() - 1);
  }
  if (deletions_out != nullptr) *deletions_out = deletions;
  return st.max_delta_ever();
}

TEST(LevelAttack, RequiresMatchingArity) {
  const auto tree = graph::complete_kary_tree(3, 2);
  EXPECT_DEATH(LevelAttack(tree, 2), "\\(M\\+2\\)-ary");
}

TEST(LevelAttack, DepthOneDeletesRootOnly) {
  const auto tree = graph::complete_kary_tree(4, 1);
  Graph g = tree.g;
  Rng rng(1);
  HealingState st(g, rng);
  LevelAttack atk(tree, 2);
  EXPECT_EQ(atk.select(g, st), 0u);  // root is the only planned node
}

TEST(LevelAttack, StopsAfterRoot) {
  const auto tree = graph::complete_kary_tree(4, 1);
  Graph g = tree.g;
  Rng rng(2);
  HealingState st(g, rng);
  core::DegreeCappedStrategy healer(2);
  LevelAttack atk(tree, 2);

  const NodeId root = atk.select(g, st);
  const DeletionContext ctx = st.begin_deletion(g, root);
  g.delete_node(root);
  healer.heal(g, st, ctx);
  EXPECT_EQ(atk.select(g, st), graph::kInvalidNode);
}

TEST(LevelAttack, ForcesDegreeIncreaseEachLevel) {
  // Lemma 13: deleting through level i leaves some node with delta
  // >= D - i; after the whole attack, some node has delta >= D.
  core::DegreeCappedStrategy healer(2);
  for (std::size_t depth : {2u, 3u, 4u}) {
    const std::uint32_t max_delta =
        run_level_attack(2, depth, healer, 77 + depth);
    EXPECT_GE(max_delta, depth)
        << "LEVELATTACK should force delta >= depth " << depth;
  }
}

TEST(LevelAttack, LowerBoundScalesWithLogN) {
  // depth = log_{M+2}(n); forced delta grows linearly in depth.
  core::DegreeCappedStrategy healer(2);
  std::uint32_t prev = 0;
  for (std::size_t depth : {2u, 3u, 4u, 5u}) {
    const std::uint32_t d = run_level_attack(2, depth, healer, 101);
    EXPECT_GE(d, prev);
    prev = d;
  }
  EXPECT_GE(prev, 5u);
}

TEST(LevelAttack, AlsoHurtsDash) {
  // DASH is not M-bounded per round but its total is Theta(log n);
  // LEVELATTACK must stay within DASH's 2 log2 n guarantee.
  core::DashStrategy dash;
  const std::size_t depth = 4;
  const auto tree = graph::complete_kary_tree(4, depth);
  const std::uint32_t max_delta = run_level_attack(2, depth, dash, 55);
  const double bound = 2.0 * std::log2(
      static_cast<double>(tree.g.num_nodes()));
  EXPECT_LE(static_cast<double>(max_delta), bound + 1e-9);
}

TEST(LevelAttack, PruneCounterAdvances) {
  const std::size_t depth = 3;
  const auto tree = graph::complete_kary_tree(4, depth);
  Graph g = tree.g;
  Rng rng(5);
  HealingState st(g, rng);
  core::DegreeCappedStrategy healer(2);
  LevelAttack atk(tree, 2);
  while (g.num_alive() > 1) {
    const NodeId v = atk.select(g, st);
    if (v == graph::kInvalidNode) break;
    const DeletionContext ctx = st.begin_deletion(g, v);
    g.delete_node(v);
    healer.heal(g, st, ctx);
  }
  // With depth 3 the level-2 deletions hand each level-1 node up to
  // 4*4 = 16 children; pruning must have fired.
  EXPECT_GT(atk.prune_deletions(), 0u);
}

}  // namespace
}  // namespace dash::attack
