// batch.h -- simultaneous multi-node deletion (paper footnote 1).
//
// "Our main algorithm, DASH, can easily handle the situation where any
//  number of nodes are removed, so long as the neighbor-of-neighbor
//  graph remains connected."
//
// Model: the adversary deletes a set D of nodes in one time step. The
// deleted subgraph decomposes into connected *clusters* (components of
// the subgraph induced by D). For each cluster C, the surviving
// neighbors of C reconnect exactly as in single-node DASH: one
// representative per G'-component among the surviving G-neighbors of C
// (by component id), plus all surviving G'-neighbors of C, joined into
// a delta-ordered complete binary tree, followed by min-id propagation.
// Survivors of one cluster are mutually reachable through the cluster
// in the NoN graph, which is the locality the footnote's precondition
// buys.
//
// Weight transfer follows Lemma 2 cluster-wise: each cluster's total
// weight moves to one surviving G'-neighbor of the cluster (or a
// surviving G-neighbor if the cluster has no healing edges out).
#pragma once

#include <vector>

#include "core/healing_state.h"
#include "core/strategy.h"

namespace dash::core {

/// Capture contexts for the simultaneous deletion of `batch`, transfer
/// weights, charge survivors' delta for every edge they lose into the
/// batch, and detach the batch from G'. Must be called *before* the
/// nodes are removed from the graph. `batch` must be non-empty, all
/// alive, duplicate-free.
BatchDeletionContext begin_batch_deletion(HealingState& state,
                                          const Graph& g,
                                          const std::vector<NodeId>& batch);

/// Remove every batch member from the graph (call after
/// begin_batch_deletion).
void delete_batch(Graph& g, const std::vector<NodeId>& batch);

/// DASH healing over a batch context: one reconstruction tree per
/// cluster + min-id propagation. Returns one HealAction per cluster.
std::vector<HealAction> dash_heal_batch(Graph& g, HealingState& state,
                                        const BatchDeletionContext& ctx);

/// Convenience driver: begin + delete + heal in one call.
std::vector<HealAction> dash_delete_and_heal_batch(
    Graph& g, HealingState& state, const std::vector<NodeId>& batch);

}  // namespace dash::core
