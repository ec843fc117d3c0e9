#include "attack/adaptive.h"

#include <algorithm>
#include <limits>
#include <vector>

#include "util/check.h"

namespace dash::attack {

RankAttack::RankAttack(std::size_t rank) : rank_(rank) {
  DASH_CHECK_MSG(rank_ > 0, "rank attack needs k >= 1");
}

std::string RankAttack::name() const {
  return "Rank(" + std::to_string(rank_) + ")";
}

NodeId RankAttack::select(const Graph& g, const HealingState&) {
  auto alive = g.alive_nodes();
  if (alive.empty()) return graph::kInvalidNode;
  const std::size_t idx = std::min(rank_ - 1, alive.size() - 1);
  // (degree desc, id asc) is a total order, so nth_element lands the
  // same node regardless of the input permutation.
  std::nth_element(alive.begin(),
                   alive.begin() + static_cast<std::ptrdiff_t>(idx),
                   alive.end(), [&g](NodeId a, NodeId b) {
                     if (g.degree(a) != g.degree(b)) {
                       return g.degree(a) > g.degree(b);
                     }
                     return a < b;
                   });
  return alive[idx];
}

AdaptiveAttack::AdaptiveAttack(std::int32_t threshold)
    : threshold_(threshold) {}

std::string AdaptiveAttack::name() const {
  return "Adaptive(" + std::to_string(threshold_) + ")";
}

NodeId AdaptiveAttack::select(const Graph& g, const HealingState& state) {
  NodeId burdened = graph::kInvalidNode;
  std::int32_t best = std::numeric_limits<std::int32_t>::min();
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (!g.alive(v)) continue;
    if (burdened == graph::kInvalidNode || state.delta(v) > best) {
      burdened = v;
      best = state.delta(v);
    }
  }
  if (burdened == graph::kInvalidNode) return graph::kInvalidNode;
  if (best >= threshold_) {
    NodeId target = graph::kInvalidNode;
    std::size_t target_deg = 0;
    for (NodeId u : state.forest_neighbors(burdened)) {
      if (u >= g.num_nodes() || !g.alive(u)) continue;
      if (target == graph::kInvalidNode || g.degree(u) > target_deg ||
          (g.degree(u) == target_deg && u < target)) {
        target = u;
        target_deg = g.degree(u);
      }
    }
    if (target != graph::kInvalidNode) return target;
    return burdened;  // burdened but healing-isolated: take it out
  }
  return g.argmax_degree();
}

}  // namespace dash::attack
