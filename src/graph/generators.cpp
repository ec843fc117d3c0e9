#include "graph/generators.h"

#include <algorithm>
#include <cmath>

#include "graph/traversal.h"
#include "util/check.h"

namespace dash::graph {

using dash::util::Rng;

namespace {
/// Append edge {a, b} to a flat endpoint list (two ids per edge), the
/// shape Graph::from_edges builds from.
void link(std::vector<NodeId>& endpoints, NodeId a, NodeId b) {
  endpoints.push_back(a);
  endpoints.push_back(b);
}
}  // namespace

Graph barabasi_albert(std::size_t n, std::size_t edges_per_node, Rng& rng) {
  const std::size_t m = edges_per_node;
  DASH_CHECK_MSG(m >= 1, "BA needs at least one edge per node");
  DASH_CHECK_MSG(n > m, "BA needs n > edges_per_node");

  // Endpoint list: every edge contributes both endpoints, so sampling a
  // uniform element is sampling a node proportionally to its degree --
  // and the list is the graph's edge list, two ids per edge.
  std::vector<NodeId> endpoints;
  endpoints.reserve(2 * m * n);

  // Seed: star on nodes 0..m (node 0 the hub) -- connected, and gives the
  // first attaching node m+1 a full set of m+1 candidates.
  for (NodeId leaf = 1; leaf <= m; ++leaf) link(endpoints, 0, leaf);

  std::vector<NodeId> targets;
  targets.reserve(m);
  for (NodeId v = static_cast<NodeId>(m) + 1; v < n; ++v) {
    targets.clear();
    // Rejection-sample m distinct targets by degree.
    while (targets.size() < m) {
      const NodeId cand =
          endpoints[static_cast<std::size_t>(rng.below(endpoints.size()))];
      if (std::find(targets.begin(), targets.end(), cand) == targets.end()) {
        targets.push_back(cand);
      }
    }
    for (NodeId t : targets) link(endpoints, v, t);
  }
  return Graph::from_edges(n, endpoints);
}

Graph erdos_renyi_gnp(std::size_t n, double p, Rng& rng) {
  DASH_CHECK(p >= 0.0 && p <= 1.0);
  if (p <= 0.0 || n < 2) return Graph(n);
  if (p >= 1.0) return complete_graph(n);
  // Geometric skipping (Batagelj-Brandes): O(n + m) expected time.
  const double log1mp = std::log(1.0 - p);
  std::int64_t v = 1;
  std::int64_t w = -1;
  const auto nn = static_cast<std::int64_t>(n);
  std::vector<NodeId> endpoints;
  while (v < nn) {
    const double r = rng.uniform01();
    w += 1 + static_cast<std::int64_t>(std::log(1.0 - r) / log1mp);
    while (w >= v && v < nn) {
      w -= v;
      ++v;
    }
    if (v < nn) link(endpoints, static_cast<NodeId>(v), static_cast<NodeId>(w));
  }
  return Graph::from_edges(n, endpoints);
}

Graph connected_gnp(std::size_t n, double p, Rng& rng,
                    std::size_t max_tries) {
  for (std::size_t attempt = 0; attempt < max_tries; ++attempt) {
    Graph g = erdos_renyi_gnp(n, p, rng);
    if (is_connected(g)) return g;
  }
  DASH_CHECK_MSG(false, "connected_gnp: no connected sample; raise p");
  return Graph(0);  // unreachable
}

Graph random_tree(std::size_t n, Rng& rng) {
  std::vector<NodeId> endpoints;
  endpoints.reserve(2 * n);
  for (NodeId v = 1; v < n; ++v) {
    link(endpoints, v, static_cast<NodeId>(rng.below(v)));  // parent
  }
  return Graph::from_edges(n, endpoints);
}

KaryTree complete_kary_tree(std::size_t arity, std::size_t depth) {
  DASH_CHECK(arity >= 1);
  // Node count: sum_{i=0}^{depth} arity^i.
  std::size_t n = 0;
  std::size_t level_size = 1;
  for (std::size_t d = 0; d <= depth; ++d) {
    n += level_size;
    level_size *= arity;
  }

  KaryTree t;
  t.arity = arity;
  t.depth = depth;
  t.parent.assign(n, kInvalidNode);
  t.level.assign(n, 0);
  t.children.assign(n, {});

  std::vector<NodeId> endpoints;
  endpoints.reserve(2 * n);
  NodeId next = 1;
  for (NodeId v = 0; v < n && next < n; ++v) {
    for (std::size_t c = 0; c < arity && next < n; ++c) {
      link(endpoints, v, next);
      t.parent[next] = v;
      t.level[next] = t.level[v] + 1;
      t.children[v].push_back(next);
      ++next;
    }
  }
  t.g = Graph::from_edges(n, endpoints);
  return t;
}

Graph path_graph(std::size_t n) {
  std::vector<NodeId> endpoints;
  for (NodeId v = 1; v < n; ++v) link(endpoints, v - 1, v);
  return Graph::from_edges(n, endpoints);
}

Graph cycle_graph(std::size_t n) {
  DASH_CHECK_MSG(n == 0 || n >= 3, "cycle needs >= 3 nodes");
  std::vector<NodeId> endpoints;
  for (NodeId v = 0; v < n; ++v) {
    link(endpoints, v, static_cast<NodeId>((v + 1) % n));
  }
  return Graph::from_edges(n, endpoints);
}

Graph star_graph(std::size_t n) {
  std::vector<NodeId> endpoints;
  for (NodeId v = 1; v < n; ++v) link(endpoints, 0, v);
  return Graph::from_edges(n, endpoints);
}

Graph complete_graph(std::size_t n) {
  std::vector<NodeId> endpoints;
  for (NodeId a = 0; a < n; ++a)
    for (NodeId b = a + 1; b < n; ++b) link(endpoints, a, b);
  return Graph::from_edges(n, endpoints);
}

Graph grid_graph(std::size_t rows, std::size_t cols) {
  auto id = [cols](std::size_t r, std::size_t c) {
    return static_cast<NodeId>(r * cols + c);
  };
  std::vector<NodeId> endpoints;
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      if (c + 1 < cols) link(endpoints, id(r, c), id(r, c + 1));
      if (r + 1 < rows) link(endpoints, id(r, c), id(r + 1, c));
    }
  }
  return Graph::from_edges(rows * cols, endpoints);
}

Graph watts_strogatz(std::size_t n, std::size_t k, double beta, Rng& rng) {
  DASH_CHECK_MSG(k >= 1 && 2 * k < n, "watts_strogatz needs 2k < n");
  // Ring lattice: each node connected to k neighbors on each side.
  std::vector<NodeId> endpoints;
  endpoints.reserve(2 * k * n);
  for (NodeId v = 0; v < n; ++v) {
    for (std::size_t j = 1; j <= k; ++j) {
      link(endpoints, v, static_cast<NodeId>((v + j) % n));
    }
  }
  Graph g = Graph::from_edges(n, endpoints);
  // Rewire each lattice edge (v, v+j) with probability beta.
  for (NodeId v = 0; v < n; ++v) {
    for (std::size_t j = 1; j <= k; ++j) {
      if (!rng.chance(beta)) continue;
      const auto old = static_cast<NodeId>((v + j) % n);
      if (!g.has_edge(v, old)) continue;  // already rewired away
      if (g.degree(v) >= n - 1) continue; // saturated; nothing to rewire to
      NodeId fresh;
      do {
        fresh = static_cast<NodeId>(rng.below(n));
      } while (fresh == v || g.has_edge(v, fresh));
      g.remove_edge(v, old);
      g.add_edge(v, fresh);
    }
  }
  return g;
}

}  // namespace dash::graph
