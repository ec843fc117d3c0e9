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

namespace {

bool test_bit(const std::uint64_t* bits, std::uint64_t x) {
  return (bits[x >> 6] >> (x & 63)) & 1;
}
void set_bit(std::uint64_t* bits, std::uint64_t x) {
  bits[x >> 6] |= std::uint64_t{1} << (x & 63);
}

/// Where a failing E' edge {a, b} is named: at its lower endpoint
/// when both are alive, else at its alive one (kInvalidNode when both
/// are dead).
NodeId edge_candidate(NodeId a, bool a_alive, NodeId b, bool b_alive) {
  return std::min(a_alive ? a : graph::kInvalidNode,
                  b_alive ? b : graph::kInvalidNode);
}

}  // namespace

Check HealingForestWalk::check(const Graph& g, const HealingState& state,
                               ForestWalkOptions opts) {
  const std::size_t n = g.num_nodes();
  DASH_CHECK_MSG(state.num_nodes() == n, "state out of sync with graph");
  const std::size_t words = (n + 63) / 64;
  seen_.assign(words, 0);
  id_seen_.assign(words, 0);
  if (queue_.size() < n + 1) {
    queue_.resize(n + 1);
    parent_.resize(n + 1);
  }
  std::uint64_t* const seen = seen_.data();
  std::uint64_t* const id_seen = id_seen_.data();
  NodeId* const queue = queue_.data();
  std::uint32_t* const parent_at = parent_.data();
  const graph::BlockSlab& adjacency = g.adjacency();

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

  // delta(v) against the size of v's block, which the caller holds.
  auto drifts = [&](NodeId v, std::size_t degree) {
    return state.delta(v) != static_cast<std::int64_t>(degree) -
                                 static_cast<std::int64_t>(
                                     state.initial_degree(v));
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
    if (test_bit(id_seen, id)) ids_at = root;
    set_bit(id_seen, id);
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

  // Six queue slots before a node is dequeued, its blocks in G and G'
  // are prefetched: at 10^6 nodes they are mostly out of cache.
  constexpr std::size_t kAhead = 6;
  auto prefetch_blocks = [&](NodeId v) {
    __builtin_prefetch(adjacency.list(v).data());
    __builtin_prefetch(state.forest_neighbors(v).data());
  };

  for (const NodeId root : g.alive_set()) {
    if (test_bit(seen, root)) continue;
    const std::uint64_t id = state.component_id(root);
    if (state.forest_neighbors(root).empty()) {
      // A G'-singleton: no edge to walk or probe, and rem = w(root).
      if (drifts(root, adjacency.size(root))) {
        delta_at = std::min(delta_at, root);
      }
      claim_id(root, id, false);
      if (opts.check_rem_bound && root < rem_at) {
        check_rem(root, state.weight(root));
      }
      continue;
    }
    // BFS from the tree's lowest alive id. A dead id that E' still
    // names is walked like any node (its block is empty); only its
    // per-node checks are skipped. The root is its own parent (E' has
    // no self-loops). Every E' entry is stored at the queue's tail and
    // kept only if unseen, so the loop takes no branch on the marks;
    // the queue has a slot past n for the last store.
    queue[0] = root;
    parent_at[0] = 0;
    set_bit(seen, root);
    std::size_t tail = 1;
    bool mixed = false;
    bool cyclic = false;
    for (std::size_t i = 0; i < tail; ++i) {
      if (i + kAhead < tail) prefetch_blocks(queue[i + kAhead]);
      const NodeId v = queue[i];
      const NodeId p = queue[parent_at[i]];
      const bool v_alive = g.alive(v);
      mixed |= state.component_id(v) != id;
      const std::span<const NodeId> block = adjacency.list(v);
      if (v_alive & drifts(v, block.size())) delta_at = std::min(delta_at, v);
      // E' subset of E: the E' edge {v, x} is a G-edge iff both ends
      // are alive and x is in v's block. Each tree edge is probed from
      // its child.
      auto probe = [&](NodeId x) {
        const bool x_alive = g.alive(x);
        const bool in_g = v_alive & x_alive &
                          std::binary_search(block.begin(), block.end(), x);
        const NodeId at = edge_candidate(v, v_alive, x, x_alive);
        edge_at = std::min(edge_at, in_g ? kNone : at);
      };
      if (p != v) probe(p);
      for (const NodeId u : state.forest_neighbors(v)) {
        std::uint64_t& word = seen[u >> 6];
        const std::uint64_t bit = std::uint64_t{1} << (u & 63);
        const bool fresh = (word & bit) == 0;
        word |= bit;
        queue[tail] = u;
        parent_at[tail] = static_cast<std::uint32_t>(i);
        tail += fresh;
        if (!fresh && u != p) [[unlikely]] {
          // An E' edge off the BFS tree: G' has a cycle here. Both ends
          // meet it as a seen entry; the lower end probes it.
          cyclic = true;
          if (v < u) probe(u);
        }
      }
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
    subtree_.resize(tail);
    heaviest_.assign(tail, 0);
    for (std::size_t i = 0; i < tail; ++i) {
      subtree_[i] = state.weight(queue[i]);
    }
    for (std::size_t i = tail; i-- > 1;) {
      subtree_[parent_at[i]] += subtree_[i];
      heaviest_[parent_at[i]] = std::max(heaviest_[parent_at[i]], subtree_[i]);
    }
    for (std::size_t i = 0; i < tail; ++i) {
      const NodeId v = queue[i];
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
