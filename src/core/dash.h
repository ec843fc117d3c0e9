// dash.h -- Algorithm 1 of the paper: Degree-Based Self-Healing.
//
// On deletion of v, reconnect UN(v,G) u N(v,G') into a complete binary
// tree filled left-to-right, top-down, in increasing order of delta --
// the most-burdened nodes become leaves and gain no degree -- then
// propagate the minimum component id through the merged G'-tree.
//
// Guarantees (Theorem 1): connectivity preserved; delta(v) <= 2 log2 n;
// O(1) reconnection latency; O(log n) amortized id-propagation latency;
// <= 2(d + 2 log n) ln n messages per node whp.
#pragma once

#include <vector>

#include "core/strategy.h"

namespace dash::core {

class DashStrategy final : public HealingStrategy {
 public:
  std::string name() const override { return "DASH"; }
  HealAction heal(Graph& g, HealingState& state,
                  const DeletionContext& ctx) override;
  std::unique_ptr<HealingStrategy> clone() const override {
    return std::make_unique<DashStrategy>(*this);
  }

 private:
  std::vector<NodeId> rt_;  ///< reconnection-set scratch, reused per heal
};

}  // namespace dash::core
