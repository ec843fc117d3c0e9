#include "analysis/invariants.h"

#include <algorithm>
#include <cmath>
#include <span>

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

  // Each property's first failure, kept as a node: the lowest failing
  // one, or for the ids the root of the first failing tree. The
  // violation strings are built once, after the walk.
  constexpr NodeId kNone = graph::kInvalidNode;
  NodeId ids_at = kNone;
  bool ids_mixed = false;
  NodeId edge_at = kNone;
  NodeId delta_at = kNone;
  NodeId rem_at = kNone;
  bool rem_cyclic = false;
  double rem_value = 0.0;
  double rem_bound = 0.0;

  auto drifts = [&](NodeId v) {
    return state.delta(v) != state.raw_degree_increase(g, v);
  };
  // Trees come in ascending root order: the first failing one is the
  // one a per-root scan names.
  auto claim_id = [&](NodeId root, std::uint64_t id, bool mixed) {
    if (ids_at != kNone) return;
    if (mixed) {
      ids_at = root;
      ids_mixed = true;
      return;
    }
    DASH_CHECK_MSG(id < n, "component id out of range");
    if (id_seen_[id] == epoch_) ids_at = root;
    id_seen_[id] = epoch_;
  };
  auto check_rem = [&](NodeId v, std::uint64_t rem_weight) {
    const auto rem = static_cast<double>(rem_weight);
    const double bound = std::exp2(static_cast<double>(state.delta(v)) / 2.0);
    if (rem + 1e-9 < bound) {
      rem_at = v;
      rem_value = rem;
      rem_bound = bound;
    }
  };
  // E' subset of E, one probe per undirected E' edge {v, u}, taken from
  // v < u: E' is symmetric, so u's list names v too. Its lowest failing
  // endpoint is v when v is alive, else u. Adjacency is symmetric, so
  // the probe searches the shorter of the two sorted blocks.
  auto probe_edge = [&](NodeId v, std::span<const NodeId> v_block,
                        bool v_alive, NodeId u) {
    const bool u_alive = g.alive(u);
    if (!v_alive) {
      if (u_alive && u < edge_at) edge_at = u;
      return;
    }
    if (v >= edge_at) return;
    if (!u_alive) {
      edge_at = v;
      return;
    }
    std::span<const NodeId> block = v_block;
    NodeId other = u;
    const std::span<const NodeId> u_block = g.neighbors(u);
    if (u_block.size() < block.size()) {
      block = u_block;
      other = v;
    }
    if (!std::binary_search(block.begin(), block.end(), other)) edge_at = v;
  };

  for (const NodeId root : g.alive_set()) {
    if (seen_[root] == epoch_) continue;
    const std::uint64_t id = state.component_id(root);
    if (state.forest_neighbors(root).empty()) {
      // A G'-singleton: no edge to walk or probe, and rem = w(root).
      if (root < delta_at && drifts(root)) delta_at = root;
      claim_id(root, id, false);
      if (opts.check_rem_bound && root < rem_at) {
        check_rem(root, state.weight(root));
      }
      continue;
    }
    // BFS from the tree's lowest alive id. A dead id that E' still
    // names is walked like any node; only its per-node checks are
    // skipped. The root is its own parent (E' has no self-loops).
    queue_.assign(1, root);
    parent_.assign(1, 0);
    seen_[root] = epoch_;
    bool mixed = false;
    bool cyclic = false;
    for (std::size_t i = 0; i < queue_.size(); ++i) {
      const NodeId v = queue_[i];
      const NodeId parent = queue_[parent_[i]];
      const bool v_alive = g.alive(v);
      mixed |= state.component_id(v) != id;
      const std::span<const NodeId> v_block =
          v_alive ? g.neighbors(v) : std::span<const NodeId>{};
      for (const NodeId u : state.forest_neighbors(v)) {
        if (v < u) probe_edge(v, v_block, v_alive, u);
        if (u == parent) continue;
        if (seen_[u] == epoch_) {
          cyclic = true;
          continue;
        }
        seen_[u] = epoch_;
        queue_.push_back(u);
        parent_.push_back(static_cast<std::uint32_t>(i));
      }
      if (v_alive && v < delta_at && drifts(v)) delta_at = v;
    }
    if (cyclic && opts.require_forest) {
      return Check::fail("healing graph G' contains a cycle");
    }
    claim_id(root, id, mixed);

    if (!opts.check_rem_bound || root >= rem_at) continue;
    if (cyclic) {
      rem_at = root;
      rem_cyclic = true;
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
      check_rem(v, subtree_[0] - std::max(heaviest_[i], above));
    }
  }

  if (ids_at != kNone) {
    if (ids_mixed) {
      return Check::fail("component of node " + std::to_string(ids_at) +
                         " has mixed ids");
    }
    return Check::fail("component id " +
                       std::to_string(state.component_id(ids_at)) +
                       " appears in two distinct G'-components");
  }
  if (edge_at != kNone) {
    // Named by the first failing entry of the node's own list.
    for (const NodeId u : state.forest_neighbors(edge_at)) {
      if (!g.alive(u) || !g.has_edge(edge_at, u)) {
        return Check::fail("healing edge {" + std::to_string(edge_at) + "," +
                           std::to_string(u) + "} is not in the network");
      }
    }
    DASH_CHECK_MSG(false, "E' is not symmetric");
  }
  if (delta_at != kNone) {
    return Check::fail("delta(" + std::to_string(delta_at) + ")=" +
                       std::to_string(state.delta(delta_at)) +
                       " != deg_now - deg_init = " +
                       std::to_string(state.raw_degree_increase(g, delta_at)));
  }
  if (rem_at != kNone) {
    if (rem_cyclic) {
      return Check::fail("rem(" + std::to_string(rem_at) +
                         ") undefined: its G'-tree contains a cycle");
    }
    return Check::fail("rem(" + std::to_string(rem_at) + ")=" +
                       std::to_string(rem_value) + " < 2^(delta/2)=" +
                       std::to_string(rem_bound) + " with delta=" +
                       std::to_string(state.delta(rem_at)));
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
