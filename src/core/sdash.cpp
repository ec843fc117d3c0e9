#include "core/sdash.h"

namespace dash::core {

HealAction SdashStrategy::heal(Graph& g, HealingState& state,
                               const DeletionContext& ctx) {
  HealAction action;
  state.reconnection_set(ctx, rt_);
  action.reconnection_set_size = rt_.size();
  if (rt_.empty()) return action;

  // rt_ is sorted by increasing delta: rt_.front() is the cheapest
  // candidate surrogate w, rt_.back() is m, the max-delta member.
  // Deltas are signed (net degree change) -- keep the arithmetic signed.
  const std::int64_t max_delta = state.delta(rt_.back());
  const std::int64_t w_delta = state.delta(rt_.front());
  const bool surrogate_ok =
      rt_.size() >= 2 &&
      w_delta + static_cast<std::int64_t>(rt_.size() - 1) <=
          max_delta + static_cast<std::int64_t>(slack_);

  // Slot i's parent: the surrogate in slot 0 for the star, slot
  // (i - 1) / 2 for DASH's complete binary tree.
  action.used_surrogate = surrogate_ok;
  action.new_graph_edges.reserve(rt_.size() - 1);
  for (std::size_t i = 1; i < rt_.size(); ++i) {
    const NodeId parent = rt_[surrogate_ok ? 0 : (i - 1) / 2];
    if (state.add_healing_edge(g, parent, rt_[i])) {
      action.new_graph_edges.emplace_back(parent, rt_[i]);
    }
  }
  action.ids_rewritten = state.propagate_min_id(g, rt_);
  return action;
}

}  // namespace dash::core
