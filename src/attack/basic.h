// basic.h -- the paper's Section 4.2 attack strategies plus controls.
#pragma once

#include "attack/strategy.h"
#include "util/rng.h"

namespace dash::attack {

/// "MaxNode": always delete the current maximum-degree node (lowest id
/// wins ties). The most effective strategy against stretch (Sec. 4.6.3).
class MaxNodeAttack final : public AttackStrategy {
 public:
  std::string name() const override { return "MaxNode"; }
  NodeId select(const Graph& g, const HealingState& state) override;
};

/// "NeighborOfMaxStrategy (NMS)": delete a uniformly random neighbor of
/// the current maximum-degree node; if the max node is isolated, delete
/// it. Consistently produces the highest degree increase (Sec. 4.4).
class NeighborOfMaxAttack final : public AttackStrategy {
 public:
  explicit NeighborOfMaxAttack(std::uint64_t seed = 1)
      : rng_(seed ^ 0x4e4d53ULL) {}
  std::string name() const override { return "NeighborOfMax"; }
  NodeId select(const Graph& g, const HealingState& state) override;

 private:
  dash::util::Rng rng_;
};

/// Uniformly random alive node; models failures rather than attack.
class RandomAttack final : public AttackStrategy {
 public:
  explicit RandomAttack(std::uint64_t seed = 1) : rng_(seed ^ 0x524eULL) {}
  std::string name() const override { return "Random"; }
  NodeId select(const Graph& g, const HealingState& state) override;

 private:
  dash::util::Rng rng_;
};

/// Always delete the current minimum-degree node (lowest id ties).
/// Degenerate control: tends to chew leaves first.
class MinNodeAttack final : public AttackStrategy {
 public:
  std::string name() const override { return "MinNode"; }
  NodeId select(const Graph& g, const HealingState& state) override;
};

/// Delete the alive node with the highest delta (the healer's most
/// burdened node) -- an adaptive adversary aimed directly at the metric
/// DASH protects. Ties broken by lowest id.
class MaxDeltaAttack final : public AttackStrategy {
 public:
  std::string name() const override { return "MaxDelta"; }
  NodeId select(const Graph& g, const HealingState& state) override;
};

}  // namespace dash::attack
