#include "core/healers.h"

#include <algorithm>

#include "util/check.h"

namespace dash::core {

HealAction reconnect(Graph& g, HealingState& state,
                     const std::vector<NodeId>& order, TreeShape shape) {
  HealAction action;
  action.reconnection_set_size = order.size();
  if (order.empty()) return action;
  action.new_graph_edges.reserve(order.size() - 1);
  for (std::size_t i = 1; i < order.size(); ++i) {
    const NodeId parent = order[shape == TreeShape::kBinary ? (i - 1) / 2
                                : shape == TreeShape::kStar ? 0
                                                            : i - 1];
    if (state.add_healing_edge(g, parent, order[i])) {
      action.new_graph_edges.emplace_back(parent, order[i]);
    }
  }
  action.ids_rewritten = state.propagate_min_id(g, order);
  return action;
}

namespace {

/// The component-aware set in initial-id order: the delta-oblivious
/// placement of the Sec. 4.3 baselines.
std::vector<NodeId> by_initial_id(const HealingState& state,
                                  const DeletionContext& ctx) {
  std::vector<NodeId> rt = state.reconnection_set(ctx);
  std::sort(rt.begin(), rt.end(), [&state](NodeId a, NodeId b) {
    return state.initial_id(a) < state.initial_id(b);
  });
  return rt;
}

}  // namespace

HealAction DashStrategy::heal(Graph& g, HealingState& state,
                              const DeletionContext& ctx) {
  // reconnection_set() yields UN(v,G) u N(v,G') already sorted by
  // increasing delta -- exactly Algorithm 1 line 4's fill order.
  state.reconnection_set(ctx, rt_);
  return reconnect(g, state, rt_, TreeShape::kBinary);
}

HealAction SdashStrategy::heal(Graph& g, HealingState& state,
                               const DeletionContext& ctx) {
  state.reconnection_set(ctx, rt_);
  // rt_ is sorted by increasing delta: rt_.front() is the cheapest
  // candidate surrogate w, rt_.back() is m, the max-delta member.
  // Deltas are signed (net degree change) -- keep the arithmetic signed.
  const bool surrogate =
      rt_.size() >= 2 &&
      state.delta(rt_.front()) + static_cast<std::int64_t>(rt_.size() - 1) <=
          state.delta(rt_.back()) + static_cast<std::int64_t>(slack_);
  HealAction action = reconnect(
      g, state, rt_, surrogate ? TreeShape::kStar : TreeShape::kBinary);
  action.used_surrogate = surrogate;
  return action;
}

HealAction BinaryTreeHealStrategy::heal(Graph& g, HealingState& state,
                                        const DeletionContext& ctx) {
  return reconnect(g, state, by_initial_id(state, ctx), TreeShape::kBinary);
}

HealAction LineHealStrategy::heal(Graph& g, HealingState& state,
                                  const DeletionContext& ctx) {
  return reconnect(g, state, by_initial_id(state, ctx), TreeShape::kPath);
}

DegreeCappedStrategy::DegreeCappedStrategy(std::uint32_t m) : m_(m) {
  DASH_CHECK_MSG(m >= 2, "degree cap must be >= 2 (see header)");
}

std::string DegreeCappedStrategy::name() const {
  return "DegreeCapped(M=" + std::to_string(m_) + ")";
}

HealAction DegreeCappedStrategy::heal(Graph& g, HealingState& state,
                                      const DeletionContext& ctx) {
  // Sorted ascending by delta; moving the highest-delta node to the
  // front endpoint leaves the second-highest at the back endpoint and
  // the rest ascending in the interior.
  std::vector<NodeId> order = state.reconnection_set(ctx);
  if (!order.empty()) {
    std::rotate(order.begin(), order.end() - 1, order.end());
  }
  std::vector<std::int32_t> before(order.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    before[i] = state.delta(order[i]);
  }
  HealAction action = reconnect(g, state, order, TreeShape::kPath);
  for (std::size_t i = 0; i < order.size(); ++i) {
    const std::int32_t rise = state.delta(order[i]) - before[i];
    DASH_CHECK_MSG(rise <= static_cast<std::int32_t>(m_),
                   "degree cap violated");
    if (rise > 0) {
      max_round_increase_ =
          std::max(max_round_increase_, static_cast<std::uint32_t>(rise));
    }
  }
  return action;
}

HealAction GraphHealStrategy::heal(Graph& g, HealingState& state,
                                   const DeletionContext& ctx) {
  // Naive: the full neighbor set, in (deterministic) id order -- no
  // component tracking, no delta-awareness. Ids are still maintained
  // (Fig. 9 compares id/message costs across all strategies) even
  // though this strategy ignores them for healing.
  std::vector<NodeId> nodes = ctx.neighbors_g;
  std::sort(nodes.begin(), nodes.end());
  return reconnect(g, state, nodes, TreeShape::kBinary);
}

HealAction NoHealStrategy::heal(Graph& /*g*/, HealingState& /*state*/,
                                const DeletionContext& ctx) {
  HealAction action;
  action.reconnection_set_size = ctx.neighbors_g.size();
  return action;
}

}  // namespace dash::core
