#include "attack/basic.h"

#include "graph/sample.h"
#include "util/check.h"

namespace dash::attack {

NodeId MaxNodeAttack::select(const Graph& g, const HealingState&) {
  return g.argmax_degree();
}

NodeId NeighborOfMaxAttack::select(const Graph& g, const HealingState&) {
  const NodeId hub = g.argmax_degree();
  if (hub == graph::kInvalidNode) return graph::kInvalidNode;
  const auto& nbrs = g.neighbors(hub);
  if (nbrs.empty()) return hub;  // isolated hub: take it down directly
  return nbrs[static_cast<std::size_t>(rng_.below(nbrs.size()))];
}

NodeId RandomAttack::select(const Graph& g, const HealingState&) {
  const auto pick = graph::sample_alive(g, rng_, 1);
  return pick.empty() ? graph::kInvalidNode : pick[0];
}

NodeId MinNodeAttack::select(const Graph& g, const HealingState&) {
  NodeId best = graph::kInvalidNode;
  std::size_t best_deg = 0;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (!g.alive(v)) continue;
    if (best == graph::kInvalidNode || g.degree(v) < best_deg) {
      best = v;
      best_deg = g.degree(v);
    }
  }
  return best;
}

NodeId MaxDeltaAttack::select(const Graph& g, const HealingState& state) {
  NodeId best = graph::kInvalidNode;
  std::int32_t best_delta = 0;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (!g.alive(v)) continue;
    if (best == graph::kInvalidNode || state.delta(v) > best_delta) {
      best = v;
      best_delta = state.delta(v);
    }
  }
  return best;
}

}  // namespace dash::attack
