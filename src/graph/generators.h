// generators.h -- random and structured graph generators.
//
// The paper's experiments (Sec. 4.1) run on Barabasi-Albert preferential
// attachment graphs; the lower bound (Sec. 3.2) needs complete (M+2)-ary
// trees; tests exercise the remaining families.
//
// Every generator first lists its edges, two ids per edge, and builds
// the graph from that list in one pass (Graph::from_edges: each block
// laid out once, in id order, at its final capacity). Barabasi-Albert's
// list is its degree-proportional sampling list itself. Watts-Strogatz
// builds its ring lattice that way, then rewires edge by edge. The
// lists, edge counts and RNG draws are those of an edge-by-edge build.
#pragma once

#include <cstddef>
#include <vector>

#include "graph/graph.h"
#include "util/rng.h"

namespace dash::graph {

/// Barabasi-Albert preferential attachment [Barabasi & Albert 1999].
/// Starts from a star on `edges_per_node`+1 nodes and then attaches each
/// new node to `edges_per_node` distinct existing nodes sampled
/// proportionally to degree (endpoint-list sampling). Always connected.
Graph barabasi_albert(std::size_t n, std::size_t edges_per_node,
                      dash::util::Rng& rng);

/// Erdos-Renyi G(n, p). May be disconnected.
Graph erdos_renyi_gnp(std::size_t n, double p, dash::util::Rng& rng);

/// Erdos-Renyi G(n, p) conditioned on connectivity: redraws until the
/// sample is connected (caller must choose p comfortably above the
/// connectivity threshold ln(n)/n; gives up after `max_tries`).
Graph connected_gnp(std::size_t n, double p, dash::util::Rng& rng,
                    std::size_t max_tries = 100);

/// Uniform-attachment random tree: node i >= 1 picks a uniformly random
/// parent among 0..i-1. Always a tree on n nodes.
Graph random_tree(std::size_t n, dash::util::Rng& rng);

/// Complete k-ary tree of the given depth plus its structure metadata,
/// which the LEVELATTACK adversary needs (levels, parents, children).
/// depth 0 is a single root. Node 0 is the root; children are allocated
/// in BFS order.
struct KaryTree {
  Graph g;
  std::size_t arity = 0;
  std::size_t depth = 0;
  std::vector<NodeId> parent;               ///< kInvalidNode for the root
  std::vector<std::uint32_t> level;         ///< root has level 0
  std::vector<std::vector<NodeId>> children;
};

KaryTree complete_kary_tree(std::size_t arity, std::size_t depth);

Graph path_graph(std::size_t n);
Graph cycle_graph(std::size_t n);
Graph star_graph(std::size_t n);  ///< node 0 is the hub
Graph complete_graph(std::size_t n);
Graph grid_graph(std::size_t rows, std::size_t cols);

/// Watts-Strogatz small-world: ring lattice with k nearest neighbors per
/// side, each edge rewired with probability beta. Used as an additional
/// test family (the paper motivates overlays, which are small-world-ish).
Graph watts_strogatz(std::size_t n, std::size_t k, double beta,
                     dash::util::Rng& rng);

}  // namespace dash::graph
