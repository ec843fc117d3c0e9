#include "sim/distributed_dash.h"

#include <algorithm>
#include <numeric>

#include "util/check.h"

namespace dash::sim {

std::uint64_t SimMetrics::max_messages_per_node() const {
  std::uint64_t best = 0;
  for (auto m : messages_per_node) best = std::max(best, m);
  return best;
}

std::uint32_t SimMetrics::max_id_changes() const {
  std::uint32_t best = 0;
  for (auto c : id_changes_per_node) best = std::max(best, c);
  return best;
}

double SimMetrics::mean_propagation_rounds() const {
  if (propagation_rounds.empty()) return 0.0;
  const auto total = std::accumulate(propagation_rounds.begin(),
                                     propagation_rounds.end(), 0ULL);
  return static_cast<double>(total) /
         static_cast<double>(propagation_rounds.size());
}

std::uint32_t SimMetrics::max_propagation_rounds() const {
  std::uint32_t best = 0;
  for (auto r : propagation_rounds) best = std::max(best, r);
  return best;
}

DistributedDashSim::DistributedDashSim(Graph g, dash::util::Rng& rng,
                                       std::uint32_t max_message_delay,
                                       SimHealPolicy policy)
    : g_(std::move(g)),
      max_message_delay_(max_message_delay),
      policy_(policy) {
  DASH_CHECK(max_message_delay_ >= 1);
  const std::size_t n = g_.num_nodes();
  // Same id-assignment scheme (and RNG call pattern) as
  // core::HealingState, so seeded runs are comparable; the delay
  // stream is forked afterwards so ids stay aligned.
  initial_id_.resize(n);
  std::iota(initial_id_.begin(), initial_id_.end(), 0ULL);
  rng.shuffle(initial_id_);
  delay_rng_ = rng.fork(0x6465);
  comp_id_ = initial_id_;
  delta_.assign(n, 0);
  forest_adj_.assign(n, {});
  metrics_.messages_per_node.assign(n, 0);
  metrics_.id_changes_per_node.assign(n, 0);
}

std::vector<NodeId> DistributedDashSim::compute_reconnection_set(
    const std::vector<NodeId>& neighbors_g,
    const std::vector<NodeId>& forest_neighbors,
    std::uint64_t deleted_component_id) const {
  // UN(v,G): one representative (lowest initial id) per component id,
  // skipping v's own component (reachable through forest neighbors).
  std::vector<NodeId> reps;
  for (NodeId u : neighbors_g) {
    if (comp_id_[u] == deleted_component_id) continue;
    bool placed = false;
    for (NodeId& r : reps) {
      if (comp_id_[r] == comp_id_[u]) {
        if (initial_id_[u] < initial_id_[r]) r = u;
        placed = true;
        break;
      }
    }
    if (!placed) reps.push_back(u);
  }
  reps.insert(reps.end(), forest_neighbors.begin(), forest_neighbors.end());
  std::sort(reps.begin(), reps.end(), [this](NodeId a, NodeId b) {
    if (delta_[a] != delta_[b]) return delta_[a] < delta_[b];
    return initial_id_[a] < initial_id_[b];
  });
  return reps;
}

std::uint32_t DistributedDashSim::delete_and_heal(NodeId v) {
  DASH_CHECK(g_.alive(v));

  // -- round 1: neighbors detect the deletion (NoN state in hand) ------
  const std::vector<NodeId> forest_neighbors = forest_adj_[v];
  const std::uint64_t v_component = comp_id_[v];
  for (NodeId u : forest_adj_[v]) {
    auto& adj = forest_adj_[u];
    adj.erase(std::remove(adj.begin(), adj.end(), v), adj.end());
  }
  forest_adj_[v].clear();
  const std::vector<NodeId> neighbors_g = g_.delete_node(v);
  // Net-delta convention: each surviving neighbor lost its edge to v.
  for (NodeId u : neighbors_g) --delta_[u];

  // -- round 1 (same round): deterministic local reconnection ----------
  // Every member of the reconnection set evaluates the same pure
  // function of NoN state, so one evaluation stands for all of them.
  const auto rt =
      compute_reconnection_set(neighbors_g, forest_neighbors, v_component);
  // Algorithm 3's surrogate rule (SDASH policy only): star on the
  // lowest-delta member when it can absorb the set without exceeding
  // the set's current max delta.
  bool star = false;
  if (policy_ == SimHealPolicy::kSdash && rt.size() >= 2) {
    const std::int64_t w_delta = delta_[rt.front()];
    const std::int64_t max_delta = delta_[rt.back()];
    star = w_delta + static_cast<std::int64_t>(rt.size() - 1) <= max_delta;
  }
  // Slot i's parent: slot 0 for the star, slot (i - 1) / 2 for the
  // complete binary tree.
  for (std::size_t i = 1; i < rt.size(); ++i) {
    const NodeId a = rt[star ? 0 : (i - 1) / 2];
    const NodeId b = rt[i];
    if (g_.add_edge(a, b)) {
      ++delta_[a];
      ++delta_[b];
      max_delta_ever_ = std::max({max_delta_ever_, delta_[a], delta_[b]});
    }
    auto& adj = forest_adj_[a];
    if (std::find(adj.begin(), adj.end(), b) == adj.end()) {
      forest_adj_[a].push_back(b);
      forest_adj_[b].push_back(a);
    }
  }
  metrics_.reconnect_rounds.push_back(1);

  // -- rounds 2..: min-id flooding over the merged tree ----------------
  const std::uint32_t flood_rounds = flood_min_id(rt);
  metrics_.propagation_rounds.push_back(flood_rounds);
  return 1 + flood_rounds;
}

std::uint32_t DistributedDashSim::flood_min_id(
    const std::vector<NodeId>& seeds) {
  if (seeds.empty()) return 0;
  // Nodes whose id just changed (or who just joined the merged tree)
  // broadcast their current id. Receivers adopt over G'-edges only;
  // message counting covers all G-neighbors (Lemma 8's model: id
  // updates ride the NoN maintenance channel). Delivery is delayed by
  // a uniform 1..max_message_delay_ rounds; adoption is monotone
  // (smaller id wins), so stale in-flight messages are harmless.
  struct PendingMsg {
    std::uint32_t deliver_round;
    NodeId to;
    std::uint64_t id;
    bool adoptable;  // true iff sent over a G'-edge
  };
  // Bucket queue indexed by round keeps processing deterministic.
  std::vector<std::vector<PendingMsg>> buckets(2);
  std::uint32_t now = 0;

  auto announce = [&](NodeId x) {
    metrics_.messages_per_node[x] += g_.degree(x);
    metrics_.total_messages += g_.degree(x);
    const auto& forest = forest_adj_[x];
    for (NodeId w : g_.neighbors(x)) {
      metrics_.messages_per_node[w] += 1;
      const std::uint32_t delay =
          max_message_delay_ == 1
              ? 1
              : 1 + static_cast<std::uint32_t>(
                        delay_rng_.below(max_message_delay_));
      const std::uint32_t at = now + delay;
      if (at >= buckets.size()) buckets.resize(at + 1);
      const bool adoptable =
          std::find(forest.begin(), forest.end(), w) != forest.end();
      buckets[at].push_back({at, w, comp_id_[x], adoptable});
    }
  };

  for (NodeId s : seeds) announce(s);

  std::uint32_t last_active_round = 0;
  for (now = 1; now < buckets.size(); ++now) {
    // Move the bucket out: adoptions enqueue into later rounds.
    std::vector<PendingMsg> batch = std::move(buckets[now]);
    buckets[now].clear();
    if (batch.empty()) continue;
    last_active_round = now;
    for (const PendingMsg& m : batch) {
      if (!m.adoptable || !g_.alive(m.to)) continue;
      if (m.id < comp_id_[m.to]) {
        comp_id_[m.to] = m.id;
        ++metrics_.id_changes_per_node[m.to];
        announce(m.to);
      }
    }
  }
  return last_active_round;
}

std::size_t run_max_degree_attack(
    DistributedDashSim& sim, std::size_t max_deletions,
    const std::function<bool(std::size_t)>& on_deletion) {
  std::size_t deletions = 0;
  while (sim.network().num_alive() > 1 && deletions < max_deletions) {
    sim.delete_and_heal(sim.network().argmax_degree());
    ++deletions;
    if (on_deletion && !on_deletion(deletions)) break;
  }
  return deletions;
}

}  // namespace dash::sim
