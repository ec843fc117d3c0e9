// traversal.h -- BFS-based queries over the alive subgraph: distances,
// connectivity, components. These back the stretch metric (Fig. 10)
// and every connectivity invariant check.
//
// Every query runs on a FlatView (CSR snapshot, see graph/flat_view.h)
// with a caller-owned TraversalScratch -- zero allocation per
// traversal, epoch-stamped distance buffers, an index-based array
// frontier. This is the hot path every repeated-traversal consumer
// (stretch sampling, the invariant battery, kVerify's cross-checks,
// snapshot reads) runs on. is_connected, connected_components and
// all_pairs_distances also take a Graph: they read its cached flat
// view with a thread-local scratch.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/flat_view.h"
#include "graph/graph.h"

namespace dash::graph {

/// Reusable BFS workspace: epoch-stamped distance/visited buffers plus
/// an index-based frontier queue (each node enqueues at most once, so a
/// flat array with head/tail cursors replaces the deque -- no per-call
/// allocation once warm). The visited stamp is one *byte* per node (a
/// wrapping 8-bit epoch, cleared wholesale every 255 traversals), so
/// the per-edge visited check -- the single hottest memory access in
/// the codebase -- touches an array small enough to stay L1-resident.
/// One scratch serves any number of sequential traversals; concurrent
/// traversals need one scratch each.
class TraversalScratch {
 public:
  /// Distance of v from the last traversal's source; kUnreachable for
  /// nodes that traversal never visited (dead, disconnected, or out of
  /// range of the last run). Valid until the next traversal using this
  /// scratch.
  std::uint32_t distance(NodeId v) const {
    return stamp_[v] == epoch_ ? dist_[v] : kUnreachable;
  }

  /// Nodes the last single-source traversal visited, level by level
  /// (the source first, then depth 1, ...; distances nondecreasing).
  /// Valid until the next traversal.
  std::span<const NodeId> visited() const {
    return {frontier_.data(), visited_count_};
  }

 private:
  /// Size buffers for an n-node id space and open a fresh epoch.
  void begin(std::size_t n);

  std::vector<std::uint32_t> dist_;   ///< valid iff stamp_[v] == epoch_
  std::vector<std::uint8_t> stamp_;
  std::vector<NodeId> frontier_;      ///< array-backed FIFO, capacity n
  /// Current-frontier membership bits for the bottom-up sweep; all
  /// zero between traversals (each level clears the bits it set).
  std::vector<std::uint64_t> frontier_bits_;
  /// Compacting pool of still-unvisited ids, built on the first
  /// bottom-up level of a traversal so later sweeps skip the settled
  /// majority.
  std::vector<NodeId> unvisited_;
  std::size_t visited_count_ = 0;
  std::uint8_t epoch_ = 0;

  friend std::size_t bfs_distances(const FlatView& view, NodeId src,
                                   TraversalScratch& scratch);
  friend std::uint32_t bfs_distance(const FlatView& view, NodeId src,
                                    NodeId dst, TraversalScratch& scratch);
  friend void connected_components(const FlatView& view,
                                   TraversalScratch& scratch,
                                   struct Components& out);
};

// ---- flat engine (zero-alloc, scratch-taking) ------------------------

/// Single-source BFS over the view's alive subgraph. Distances are read
/// through scratch.distance(); the visited set (discovery order) through
/// scratch.visited(). Returns the number of nodes reached (including
/// src). `src` must be alive in the snapshot.
std::size_t bfs_distances(const FlatView& view, NodeId src,
                          TraversalScratch& scratch);

/// Hop distance between two nodes alive in the snapshot, or
/// kUnreachable when they are disconnected: a bidirectional BFS that
/// expands one whole level at a time, always on the side whose next
/// level has fewer adjacency entries, and stops as soon as the two
/// searches meet. Reads only the CSR arrays; leaves `scratch` as if no
/// traversal had run (distance() and visited() read nothing).
std::uint32_t bfs_distance(const FlatView& view, NodeId src, NodeId dst,
                           TraversalScratch& scratch);

/// True if all alive nodes of the snapshot form a single connected
/// component. Vacuously true for 0 or 1 alive nodes.
bool is_connected(const FlatView& view, TraversalScratch& scratch);

/// Component labels for alive nodes; dead nodes get kInvalidComponent.
/// Labels are dense 0..k-1 in order of discovery from ascending node ids.
inline constexpr std::uint32_t kInvalidComponent =
    std::numeric_limits<std::uint32_t>::max();

struct Components {
  std::vector<std::uint32_t> label;   ///< per node id
  std::vector<std::uint32_t> sizes;   ///< per component label
  std::size_t count() const { return sizes.size(); }
  std::size_t largest() const;
};

/// Label the snapshot's components into `out`, reusing its buffers.
void connected_components(const FlatView& view, TraversalScratch& scratch,
                          Components& out);

// ---- on the graph's cached view --------------------------------------

/// True if all alive nodes form a single connected component.
/// Vacuously true for 0 or 1 alive nodes.
bool is_connected(const Graph& g);

Components connected_components(const Graph& g);

/// All-pairs shortest-path matrix (row-major over node ids, dead rows
/// filled with kUnreachable). O(n * m) time, O(n^2) space; used by the
/// stretch metric on graphs of at most a few thousand nodes.
std::vector<std::uint32_t> all_pairs_distances(const Graph& g);

}  // namespace dash::graph
