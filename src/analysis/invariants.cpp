#include "analysis/invariants.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "graph/dynamic_connectivity.h"
#include "graph/traversal.h"
#include "util/check.h"

namespace dash::analysis {

Check check_connectivity(const Graph& g) {
  if (graph::is_connected(g)) return Check::pass();
  const auto comps = graph::connected_components(g);
  return Check::fail("graph disconnected: " +
                     std::to_string(comps.count()) + " components over " +
                     std::to_string(g.num_alive()) + " alive nodes");
}

Check check_weight_conservation(const Graph& g, const HealingState& state,
                                std::uint64_t expected_total) {
  const std::uint64_t total = state.total_alive_weight(g);
  if (total == expected_total) return Check::pass();
  return Check::fail("alive weight " + std::to_string(total) +
                     " != expected " + std::to_string(expected_total));
}

Check check_locality(const HealAction& action, const DeletionContext& ctx) {
  const auto& nbrs = ctx.neighbors_g;  // sorted by Graph invariant
  auto is_neighbor = [&nbrs](NodeId u) {
    return std::binary_search(nbrs.begin(), nbrs.end(), u);
  };
  for (auto [a, b] : action.new_graph_edges) {
    if (!is_neighbor(a) || !is_neighbor(b)) {
      return Check::fail("healing edge {" + std::to_string(a) + "," +
                         std::to_string(b) +
                         "} joins non-neighbors of the deleted node");
    }
  }
  return Check::pass();
}

Check check_delta_bound(const HealingState& state, std::size_t n) {
  const double bound = 2.0 * std::log2(static_cast<double>(n));
  const auto max_delta = static_cast<double>(state.max_delta_ever());
  if (max_delta <= bound + 1e-9) return Check::pass();
  return Check::fail("max delta " + std::to_string(max_delta) +
                     " exceeds 2 log2 n = " + std::to_string(bound));
}

// ---- HealingForestWalk -----------------------------------------------

Check HealingForestWalk::check(const Graph& g, const HealingState& state,
                               ForestWalkOptions opts) {
  const std::size_t n = g.num_nodes();
  DASH_CHECK_MSG(state.num_nodes() == n, "state out of sync with graph");
  if (seen_.size() < n) {
    seen_.resize(n, 0);
    id_seen_.resize(n, 0);
  }
  if (++epoch_ == 0) {  // the stamp wrapped: forget every old mark
    std::fill(seen_.begin(), seen_.end(), 0);
    std::fill(id_seen_.begin(), id_seen_.end(), 0);
    epoch_ = 1;
  }

  // Each property's first failure; per-node ones keep the lowest node.
  Check ids, edges, deltas, rems;
  NodeId edge_at = graph::kInvalidNode;
  NodeId delta_at = graph::kInvalidNode;
  NodeId rem_at = graph::kInvalidNode;

  for (NodeId root = 0; root < n; ++root) {
    if (!g.alive(root) || seen_[root] == epoch_) continue;
    // BFS from the tree's lowest alive id. A dead id that E' still
    // names is walked like any node; only its per-node checks are
    // skipped. The root is its own parent (E' has no self-loops).
    queue_.assign(1, root);
    parent_.assign(1, 0);
    seen_[root] = epoch_;
    const std::uint64_t id = state.component_id(root);
    bool mixed = false;
    bool cyclic = false;
    for (std::size_t i = 0; i < queue_.size(); ++i) {
      const NodeId v = queue_[i];
      const NodeId parent = queue_[parent_[i]];
      const bool v_alive = g.alive(v);
      mixed |= state.component_id(v) != id;
      for (NodeId u : state.forest_neighbors(v)) {
        if (v_alive && v < edge_at && (!g.alive(u) || !g.has_edge(v, u))) {
          edge_at = v;
          edges = Check::fail("healing edge {" + std::to_string(v) + "," +
                              std::to_string(u) + "} is not in the network");
        }
        if (u == parent) continue;
        if (seen_[u] == epoch_) {
          cyclic = true;
          continue;
        }
        seen_[u] = epoch_;
        queue_.push_back(u);
        parent_.push_back(static_cast<std::uint32_t>(i));
      }
      if (v_alive && v < delta_at &&
          state.delta(v) != state.raw_degree_increase(g, v)) {
        delta_at = v;
        deltas = Check::fail(
            "delta(" + std::to_string(v) + ")=" +
            std::to_string(state.delta(v)) + " != deg_now - deg_init = " +
            std::to_string(state.raw_degree_increase(g, v)));
      }
    }
    if (cyclic && opts.require_forest) {
      return Check::fail("healing graph G' contains a cycle");
    }
    // Trees come in ascending root order: the first failing one is the
    // one a per-root scan names.
    if (ids.ok && mixed) {
      ids = Check::fail("component of node " + std::to_string(root) +
                        " has mixed ids");
    } else if (ids.ok) {
      DASH_CHECK_MSG(id < n, "component id out of range");
      if (id_seen_[id] == epoch_) {
        ids = Check::fail("component id " + std::to_string(id) +
                          " appears in two distinct G'-components");
      }
      id_seen_[id] = epoch_;
    }

    if (!opts.check_rem_bound || root >= rem_at) continue;
    if (cyclic) {
      rem_at = root;
      rems = Check::fail("rem(" + std::to_string(root) +
                         ") undefined: its G'-tree contains a cycle");
      continue;
    }
    // rem(v) = W(T) minus the heaviest side of T once v is cut out: a
    // child's subtree, or W(T) - W(subtree(v)) above v. Reverse BFS
    // order finishes every child before its parent.
    const std::size_t size = queue_.size();
    subtree_.resize(size);
    heaviest_.assign(size, 0);
    for (std::size_t i = 0; i < size; ++i) {
      subtree_[i] = state.weight(queue_[i]);
    }
    for (std::size_t i = size; i-- > 1;) {
      subtree_[parent_[i]] += subtree_[i];
      heaviest_[parent_[i]] = std::max(heaviest_[parent_[i]], subtree_[i]);
    }
    for (std::size_t i = 0; i < size; ++i) {
      const NodeId v = queue_[i];
      if (v >= rem_at || !g.alive(v)) continue;
      const std::uint64_t above = i == 0 ? 0 : subtree_[0] - subtree_[i];
      const auto rem = static_cast<double>(
          subtree_[0] - std::max(heaviest_[i], above));
      const double bound =
          std::exp2(static_cast<double>(state.delta(v)) / 2.0);
      if (rem + 1e-9 < bound) {
        rem_at = v;
        rems = Check::fail("rem(" + std::to_string(v) + ")=" +
                           std::to_string(rem) + " < 2^(delta/2)=" +
                           std::to_string(bound) + " with delta=" +
                           std::to_string(state.delta(v)));
      }
    }
  }
  for (Check* c : {&ids, &edges, &deltas, &rems}) {
    if (!c->ok) return std::move(*c);
  }
  return Check::pass();
}

Check check_component_tracker(const Graph& g,
                              graph::DynamicConnectivity& tracker) {
  const graph::Components truth = graph::connected_components(g);
  if (tracker.component_count() != truth.count()) {
    return Check::fail("tracker counts " +
                       std::to_string(tracker.component_count()) +
                       " components, BFS counts " +
                       std::to_string(truth.count()));
  }
  if (tracker.largest_component() != truth.largest()) {
    return Check::fail("tracker largest component " +
                       std::to_string(tracker.largest_component()) +
                       " != BFS largest " + std::to_string(truth.largest()));
  }
  // Each BFS class must sit inside one tracker class with the right
  // size; with equal class counts that makes the partitions identical.
  std::vector<NodeId> rep(truth.count(), graph::kInvalidNode);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (!g.alive(v)) continue;
    const std::uint32_t label = truth.label[v];
    if (rep[label] == graph::kInvalidNode) {
      rep[label] = v;
      if (tracker.component_size(v) != truth.sizes[label]) {
        return Check::fail("tracker sizes component of node " +
                           std::to_string(v) + " as " +
                           std::to_string(tracker.component_size(v)) +
                           ", BFS as " + std::to_string(truth.sizes[label]));
      }
    } else if (!tracker.same_component(v, rep[label])) {
      return Check::fail("tracker splits BFS-connected nodes " +
                         std::to_string(v) + " and " +
                         std::to_string(rep[label]));
    }
  }
  return Check::pass();
}

}  // namespace dash::analysis
