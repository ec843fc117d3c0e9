// strategy.h -- adversary interface.
//
// The paper's adversary is omniscient: it sees the full topology and the
// healer's internal state, and deletes one node per round. select() gets
// both and returns the victim, or kInvalidNode to stop attacking early
// (LEVELATTACK stops after the root).
//
// Attackers are never copied: each attack phase builds a fresh one,
// from the registry (attack/factory.h) or from the caller's factory.
#pragma once

#include <string>

#include "core/healing_state.h"
#include "graph/graph.h"

namespace dash::attack {

using core::HealingState;
using graph::Graph;
using graph::NodeId;

class AttackStrategy {
 public:
  virtual ~AttackStrategy() = default;
  virtual std::string name() const = 0;

  /// Pick the next node to delete. `g` has at least one alive node.
  /// Returning kInvalidNode ends the attack.
  virtual NodeId select(const Graph& g, const HealingState& state) = 0;
};

/// Non-owning adapter: lets an externally owned, stateful adversary
/// (e.g. a LevelAttack whose statistics the caller reads afterwards)
/// serve where a unique_ptr is required -- scenario attacker factories
/// in particular. The inner attack must outlive every borrow.
class BorrowedAttack final : public AttackStrategy {
 public:
  explicit BorrowedAttack(AttackStrategy& inner) : inner_(inner) {}

  std::string name() const override { return inner_.name(); }
  NodeId select(const Graph& g, const HealingState& state) override {
    return inner_.select(g, state);
  }

 private:
  AttackStrategy& inner_;
};

}  // namespace dash::attack
