// forest_reference.h -- per-node scans of the healing forest G' that
// the library replaced with analysis::HealingForestWalk's one walk.
// Each call costs O(n), so a scan over every node is O(n^2); tests keep
// them as the oracle the walk and the lemma property tests compare
// against.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <utility>
#include <vector>

#include "core/healing_state.h"
#include "util/check.h"

namespace dash::testing {

/// True if E' restricted to alive nodes is acyclic.
inline bool healing_graph_is_forest(const graph::Graph& g,
                                    const core::HealingState& st) {
  // BFS with parent tracking; a visited neighbor that is not the BFS
  // parent closes a cycle. E' edges to dead nodes were detached at
  // deletion time, so adjacency only references alive nodes.
  std::vector<char> visited(st.num_nodes(), 0);
  std::deque<std::pair<graph::NodeId, graph::NodeId>> frontier;
  for (graph::NodeId root = 0; root < st.num_nodes(); ++root) {
    if (!g.alive(root) || visited[root]) continue;
    visited[root] = 1;
    frontier.emplace_back(root, graph::kInvalidNode);
    while (!frontier.empty()) {
      auto [v, parent] = frontier.front();
      frontier.pop_front();
      bool skipped_parent_edge = false;
      for (graph::NodeId u : st.forest_neighbors(v)) {
        if (u == parent && !skipped_parent_edge) {
          // Skip exactly one edge back to the parent (E' is simple, so
          // one occurrence).
          skipped_parent_edge = true;
          continue;
        }
        if (visited[u]) return false;
        visited[u] = 1;
        frontier.emplace_back(u, v);
      }
    }
  }
  return true;
}

/// The paper's rem(v) potential: W(T_v) minus the heaviest subtree
/// hanging off v in G'. Only meaningful while E' is a forest.
inline std::uint64_t rem(const graph::Graph& g, const core::HealingState& st,
                         graph::NodeId v) {
  DASH_CHECK(g.alive(v));
  // rem(v) = sum_u W(T(u,v)) - max_u W(T(u,v)) + w(v), over G'-neighbors
  // u of v, where T(u,v) is u's subtree when v is removed from its tree.
  std::uint64_t sum = 0;
  std::uint64_t largest = 0;
  std::vector<char> visited(st.num_nodes(), 0);
  visited[v] = 1;
  for (graph::NodeId u : st.forest_neighbors(v)) {
    // Weight of u's side when the edge {v,u} is cut.
    std::uint64_t w_subtree = 0;
    std::deque<graph::NodeId> frontier{u};
    DASH_CHECK_MSG(!visited[u], "rem() requires E' to be a forest");
    visited[u] = 1;
    while (!frontier.empty()) {
      const graph::NodeId x = frontier.front();
      frontier.pop_front();
      w_subtree += st.weight(x);
      for (graph::NodeId y : st.forest_neighbors(x)) {
        if (!visited[y]) {
          visited[y] = 1;
          frontier.push_back(y);
        }
      }
    }
    sum += w_subtree;
    largest = std::max(largest, w_subtree);
  }
  return sum - largest + st.weight(v);
}

}  // namespace dash::testing
