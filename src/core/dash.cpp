#include "core/dash.h"

namespace dash::core {

HealAction DashStrategy::heal(Graph& g, HealingState& state,
                              const DeletionContext& ctx) {
  HealAction action;
  // reconnection_set() yields UN(v,G) u N(v,G') already sorted by
  // increasing delta -- exactly Algorithm 1 line 4's fill order.
  state.reconnection_set(ctx, rt_);
  action.reconnection_set_size = rt_.size();
  if (rt_.empty()) return action;

  // The complete binary tree filled left-to-right, top-down: slot i's
  // parent is slot (i - 1) / 2.
  action.new_graph_edges.reserve(rt_.size() - 1);
  for (std::size_t i = 1; i < rt_.size(); ++i) {
    const NodeId parent = rt_[(i - 1) / 2];
    if (state.add_healing_edge(g, parent, rt_[i])) {
      action.new_graph_edges.emplace_back(parent, rt_[i]);
    }
  }
  // Algorithm 1 line 5: MINID propagation over the merged tree.
  action.ids_rewritten = state.propagate_min_id(g, rt_);
  return action;
}

}  // namespace dash::core
