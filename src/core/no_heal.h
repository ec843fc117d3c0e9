// no_heal.h -- null strategy: no edges are ever added. The network
// fragments under attack; used as a control to quantify what healing
// buys (largest-component curves) and to exercise the experiment
// machinery without reconnection.
#pragma once

#include "core/strategy.h"

namespace dash::core {

class NoHealStrategy final : public HealingStrategy {
 public:
  std::string name() const override { return "NoHeal"; }
  bool reconnects_survivors() const override { return false; }
  HealAction heal(Graph& g, HealingState& state,
                  const DeletionContext& ctx) override;
  std::unique_ptr<HealingStrategy> clone() const override {
    return std::make_unique<NoHealStrategy>(*this);
  }
};

}  // namespace dash::core
