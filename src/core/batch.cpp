#include "core/batch.h"

#include <algorithm>
#include <cstdint>
#include <deque>

#include "core/reconstruction_tree.h"
#include "util/check.h"

namespace dash::core {

namespace {

/// Group `batch` into connected clusters of the subgraph G[batch].
std::vector<std::vector<NodeId>> clusters_of(const Graph& g,
                                             const std::vector<NodeId>& batch) {
  std::vector<char> in_batch(g.num_nodes(), 0);
  for (NodeId v : batch) {
    DASH_CHECK_MSG(g.alive(v), "batch member must be alive");
    DASH_CHECK_MSG(!in_batch[v], "duplicate node in batch");
    in_batch[v] = 1;
  }
  std::vector<char> visited(g.num_nodes(), 0);
  std::vector<std::vector<NodeId>> clusters;
  for (NodeId root : batch) {
    if (visited[root]) continue;
    clusters.emplace_back();
    std::deque<NodeId> frontier{root};
    visited[root] = 1;
    while (!frontier.empty()) {
      const NodeId v = frontier.front();
      frontier.pop_front();
      clusters.back().push_back(v);
      for (NodeId u : g.neighbors(v)) {
        if (in_batch[u] && !visited[u]) {
          visited[u] = 1;
          frontier.push_back(u);
        }
      }
    }
    std::sort(clusters.back().begin(), clusters.back().end());
  }
  return clusters;
}

}  // namespace

BatchDeletionContext begin_batch_deletion(HealingState& state,
                                          const Graph& g,
                                          const std::vector<NodeId>& batch) {
  DASH_CHECK(!batch.empty());
  BatchDeletionContext out;
  out.total_deleted = batch.size();

  std::vector<char> in_batch(g.num_nodes(), 0);
  for (NodeId v : batch) in_batch[v] = 1;

  for (const auto& members : clusters_of(g, batch)) {
    ClusterContext cc;
    cc.deleted = members;
    // Surviving neighborhoods of the whole cluster.
    for (NodeId v : members) {
      cc.weight += state.weight(v);
      cc.member_component_ids.push_back(state.component_id(v));
      for (NodeId u : g.neighbors(v)) {
        if (!in_batch[u]) cc.survivor_neighbors.push_back(u);
      }
      for (NodeId u : state.forest_neighbors(v)) {
        if (!in_batch[u]) cc.forest_neighbors.push_back(u);
      }
    }
    std::sort(cc.survivor_neighbors.begin(), cc.survivor_neighbors.end());
    cc.survivor_neighbors.erase(
        std::unique(cc.survivor_neighbors.begin(),
                    cc.survivor_neighbors.end()),
        cc.survivor_neighbors.end());
    std::sort(cc.forest_neighbors.begin(), cc.forest_neighbors.end());
    cc.forest_neighbors.erase(std::unique(cc.forest_neighbors.begin(),
                                          cc.forest_neighbors.end()),
                              cc.forest_neighbors.end());
    out.clusters.push_back(std::move(cc));
  }

  // Delegate the per-cluster bookkeeping (weight transfer, delta
  // charges, G' detachment) to the state.
  state.begin_cluster_deletions(g, out, in_batch);
  return out;
}

void delete_batch(Graph& g, const std::vector<NodeId>& batch) {
  for (NodeId v : batch) g.delete_node(v);
}

std::vector<HealAction> dash_heal_batch(Graph& g, HealingState& state,
                                        const BatchDeletionContext& ctx) {
  std::vector<HealAction> actions;
  actions.reserve(ctx.clusters.size());
  // G'-component marks for the candidate dedupe below: stamped with
  // the cluster's index + 1, so one array serves the whole batch.
  std::vector<std::uint32_t> stamp(g.num_nodes(), 0);
  std::vector<NodeId> frontier;
  std::uint32_t epoch = 0;
  for (const auto& cluster : ctx.clusters) {
    ++epoch;
    HealAction action;
    // UN(C,G): one representative per component id among surviving
    // neighbors, skipping ids of the cluster's own components (those
    // arrive through the forest neighbors). Representative = lowest
    // initial id, as in the single-node rule.
    std::vector<NodeId> reps;
    for (NodeId u : cluster.survivor_neighbors) {
      const std::uint64_t cid = state.component_id(u);
      if (std::find(cluster.member_component_ids.begin(),
                    cluster.member_component_ids.end(),
                    cid) != cluster.member_component_ids.end()) {
        continue;
      }
      bool placed = false;
      for (NodeId& r : reps) {
        if (state.component_id(r) == cid) {
          if (state.initial_id(u) < state.initial_id(r)) r = u;
          placed = true;
          break;
        }
      }
      if (!placed) reps.push_back(u);
    }
    // Unlike the single-deletion case, component ids cannot
    // disambiguate the candidates here: two surviving G'-neighbors of a
    // *cluster* can end up in the same split subtree (e.g. the G'-path
    // v1 - f1 - f2 - v2 with both v's deleted), and an earlier
    // cluster's min-id propagation may have relabeled survivors whose
    // ids this cluster captured before the batch. Deduplicate the whole
    // candidate set by the *actual* post-deletion G'-component: keep
    // the first candidate per component (id-representatives first, then
    // forest neighbors in node-id order).
    std::vector<NodeId> candidates = std::move(reps);
    candidates.insert(candidates.end(), cluster.forest_neighbors.begin(),
                      cluster.forest_neighbors.end());
    std::vector<NodeId> rt;
    for (NodeId c : candidates) {
      if (stamp[c] == epoch) continue;
      stamp[c] = epoch;
      frontier.assign(1, c);
      while (!frontier.empty()) {
        const NodeId x = frontier.back();
        frontier.pop_back();
        for (NodeId u : state.forest_neighbors(x)) {
          if (stamp[u] != epoch) {
            stamp[u] = epoch;
            frontier.push_back(u);
          }
        }
      }
      rt.push_back(c);
    }
    state.sort_by_delta(rt);

    action.reconnection_set_size = rt.size();
    for (auto [pi, ci] : complete_binary_tree_edges(rt.size())) {
      if (state.add_healing_edge(g, rt[pi], rt[ci])) {
        action.new_graph_edges.emplace_back(rt[pi], rt[ci]);
      }
    }
    if (!rt.empty()) {
      action.ids_rewritten = state.propagate_min_id(g, rt);
    }
    actions.push_back(std::move(action));
  }
  return actions;
}

std::vector<HealAction> dash_delete_and_heal_batch(
    Graph& g, HealingState& state, const std::vector<NodeId>& batch) {
  const BatchDeletionContext ctx = begin_batch_deletion(state, g, batch);
  delete_batch(g, batch);
  return dash_heal_batch(g, state, ctx);
}

}  // namespace dash::core

// ---- HealingState::begin_cluster_deletions ---------------------------
// Defined here (not in healing_state.cpp) because it needs the full
// BatchDeletionContext definition.

namespace dash::core {

void HealingState::begin_cluster_deletions(const Graph& g,
                                           const BatchDeletionContext& ctx,
                                           const std::vector<char>& in_batch) {
  for (const auto& cluster : ctx.clusters) {
    // Lemma 2, cluster-wise: the cluster's weight survives on one
    // surviving neighbor -- a G'-neighbor when one exists.
    const std::vector<NodeId>* heirs = &cluster.forest_neighbors;
    if (heirs->empty()) heirs = &cluster.survivor_neighbors;
    if (!heirs->empty()) {
      NodeId heir = (*heirs)[0];
      for (NodeId u : *heirs) {
        if (initial_id_[u] < initial_id_[heir]) heir = u;
      }
      weight_[heir] += cluster.weight;
    }
    for (NodeId v : cluster.deleted) weight_[v] = 0;

    // Net-delta convention: each survivor loses one degree per edge
    // into the cluster.
    for (NodeId v : cluster.deleted) {
      for (NodeId u : g.neighbors(v)) {
        if (!in_batch[u]) --delta_[u];
      }
    }

    // Detach the cluster from G', counting each incident forest edge
    // exactly once (survivor edges when seen from the deleted side,
    // internal edges from their lower endpoint).
    std::size_t removed_edges = 0;
    for (NodeId v : cluster.deleted) {
      for (NodeId u : forest_.list(v)) {
        if (!in_batch[u]) {
          forest_erase(u, v);
          ++removed_edges;
        } else if (v < u) {
          ++removed_edges;
        }
      }
    }
    for (NodeId v : cluster.deleted) forest_.release(v);
    healing_edges_ -= removed_edges;
  }
}

}  // namespace dash::core
