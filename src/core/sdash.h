// sdash.h -- Algorithm 3 of the paper: Surrogate Degree-Based
// Self-Healing (Section 4.6.2).
//
// If some node w of the reconnection set can absorb a star over the
// whole set without exceeding the set's current maximum delta
// (delta(w) + |S| - 1 <= max_delta(S)), connect everyone to w
// ("surrogation": w stands in for the deleted node, so path lengths do
// not grow). Otherwise fall back to DASH's binary tree. Empirically this
// keeps both degree increase and stretch at O(log n).
#pragma once

#include <vector>

#include "core/strategy.h"

namespace dash::core {

class SdashStrategy final : public HealingStrategy {
 public:
  /// `surrogate_slack` loosens Algorithm 3's trigger to
  ///   delta(w) + |S| - 1 <= delta(m) + slack.
  /// 0 is the paper's rule. Positive slack makes surrogation fire more
  /// often, trading bounded extra degree (at most `slack` above the
  /// set's max) for lower stretch -- an extension probing the paper's
  /// open problem of provable path-length control; see the
  /// ablation_surrogate_slack bench for the measured trade-off.
  explicit SdashStrategy(std::uint32_t surrogate_slack = 0)
      : slack_(surrogate_slack) {}

  std::string name() const override {
    return slack_ == 0 ? "SDASH"
                       : "SDASH(slack=" + std::to_string(slack_) + ")";
  }
  std::uint32_t surrogate_slack() const { return slack_; }
  HealAction heal(Graph& g, HealingState& state,
                  const DeletionContext& ctx) override;
  std::unique_ptr<HealingStrategy> clone() const override {
    return std::make_unique<SdashStrategy>(*this);
  }

 private:
  std::uint32_t slack_;
  std::vector<NodeId> rt_;  ///< reconnection-set scratch, reused per heal
};

}  // namespace dash::core
