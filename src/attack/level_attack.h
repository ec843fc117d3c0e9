// level_attack.h -- Algorithm 2 of the paper: the LEVELATTACK adversary
// used to prove the Omega(log n) lower bound (Theorem 2).
//
// Operates on a complete (M+2)-ary tree against an M-degree-bounded
// locality-aware healer. Levels are deleted bottom-up (starting one
// level above the leaves). Before deleting a node v, if v has more than
// M+2 children in the *current healed* tree, the excess children with
// the least degree increase are removed with the Prune operation --
// repeated deletion of the deepest leaf of the child's subtree, which
// never lets the healer add edges (a degree-1 deletion has a singleton
// reconnection set).
//
// Lemma 13: after v's deletion at level i, some original leaf carries
// degree increase >= D - i; after the root, >= D = Theta(log n).
//
// Precondition: the healed graph stays a tree. Starting from a tree,
// every component-aware forest-maintaining healer in this library
// preserves tree-ness (each heal adds exactly components-1 edges); the
// bench asserts this each round.
#pragma once

#include "attack/strategy.h"
#include "graph/generators.h"

namespace dash::attack {

class LevelAttack final : public AttackStrategy {
 public:
  /// `tree` must be the (m+2)-ary complete tree the experiment starts
  /// from; `m` is the healer's per-round degree budget.
  LevelAttack(const graph::KaryTree& tree, std::uint32_t m);

  std::string name() const override;
  NodeId select(const Graph& g, const HealingState& state) override;

  /// Number of deletions so far that were Prune leaf-deletions rather
  /// than planned level deletions.
  std::size_t prune_deletions() const { return prune_deletions_; }

 private:
  /// Alive neighbors of v other than its original parent: v's children
  /// in the current healed tree.
  std::vector<NodeId> current_children(const Graph& g, NodeId v) const;

  /// Deepest node of the subtree hanging off `child` when the edge to
  /// `v` is cut (ties: lowest id). In a tree this is always a leaf.
  NodeId deepest_in_subtree(const Graph& g, NodeId child, NodeId v) const;

  std::vector<NodeId> parent_;
  std::vector<NodeId> plan_;  ///< levels D-1, D-2, ..., 0, id order within
  std::size_t plan_idx_ = 0;
  std::uint32_t m_;
  std::size_t prune_deletions_ = 0;
};

}  // namespace dash::attack
