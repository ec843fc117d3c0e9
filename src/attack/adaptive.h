// adaptive.h -- parameterized and observer-conditioned adversaries.
// These widen the hunt search alphabet (hunt/genome.h) beyond the
// Section 4.2 basics: "rank:<k>" targets arbitrary positions of the
// degree order, "adaptive[:<t>]" conditions its choice on the healer's
// own bookkeeping (the HealingState observer a real overlay adversary
// could approximate by probing).
#pragma once

#include <cstdint>

#include "attack/strategy.h"

namespace dash::attack {

/// "rank:<k>": delete the k-th highest-degree alive node (1-based, so
/// rank:1 is MaxNode). Ties broken by lowest id; when fewer than k
/// nodes are alive, the lowest-degree one is taken. Deterministic.
class RankAttack final : public AttackStrategy {
 public:
  explicit RankAttack(std::size_t rank);
  std::string name() const override;
  NodeId select(const Graph& g, const HealingState& state) override;

 private:
  std::size_t rank_;
};

/// "adaptive[:<t>]": observer-conditioned strikes. While the most
/// burdened alive node (max delta, lowest id ties) carries
/// delta < t, behave like MaxNode. Once some node's delta reaches the
/// threshold, strike the heaviest alive healing-forest neighbor of
/// that node instead -- tearing down the reconnection structure the
/// healer built around its weakest point, which forces a re-heal in
/// the very place delta is already concentrated. Deterministic;
/// default threshold 2.
class AdaptiveAttack final : public AttackStrategy {
 public:
  explicit AdaptiveAttack(std::int32_t threshold = 2);
  std::string name() const override;
  NodeId select(const Graph& g, const HealingState& state) override;

 private:
  std::int32_t threshold_;
};

}  // namespace dash::attack
