#include "core/batch.h"

#include <algorithm>
#include <cstdint>
#include <deque>

#include "core/healers.h"
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
    // UN(C,G): the single-node rule, skipping ids of the cluster's own
    // components (those arrive through the forest neighbors).
    std::vector<NodeId> candidates;
    state.representatives(cluster.survivor_neighbors,
                          cluster.member_component_ids, candidates);
    // Unlike the single-deletion case, component ids cannot
    // disambiguate the candidates here: two surviving G'-neighbors of a
    // *cluster* can end up in the same split subtree (e.g. the G'-path
    // v1 - f1 - f2 - v2 with both v's deleted), and an earlier
    // cluster's min-id propagation may have relabeled survivors whose
    // ids this cluster captured before the batch. Deduplicate the whole
    // candidate set by the *actual* post-deletion G'-component: keep
    // the first candidate per component (id-representatives first, then
    // forest neighbors in node-id order).
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
    actions.push_back(reconnect(g, state, rt, TreeShape::kBinary));
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
