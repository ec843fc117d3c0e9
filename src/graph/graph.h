// graph.h -- dynamic simple undirected graph with node deletion.
//
// This is the substrate every healing experiment runs on. Requirements
// driving the design:
//   * node deletion must return the surviving neighbor set (the healing
//     algorithms operate exactly on that set);
//   * node ids must be stable across deletions (healing state is keyed
//     by id);
//   * edge insertion must report whether the edge was new (degree -- and
//     therefore the paper's delta(v) -- only grows for genuinely new
//     edges);
//   * adjacency iteration must be cheap and deterministic (sorted
//     blocks, so identical seeds give identical runs).
//
// Adjacency lives in a graph::BlockSlab (graph/block_slab.h): every
// vertex owns one contiguous block {offset, degree, capacity} inside a
// single shared neighbor slab, grown by doubling and recycled through
// per-class free lists when a node dies or outgrows its block -- so a
// million-node graph is three flat arrays plus one slab instead of a
// million heap allocations, and iterating a neighborhood is one
// contiguous span. Graph inserts at the sorted position (memmove within
// the block), so iteration order -- and every byte downstream of it --
// is identical to the historical sorted-vector layout. from_edges
// builds a whole graph in one pass instead: every block is laid out
// once, in id order, at the capacity edge-by-edge growth would reach.
//
// Every mutation also appends the vertices it touched to a bounded
// *touched log* (monotone sequence numbers, prefix-compacted when it
// outgrows its cap). Snapshot consumers (graph/flat_view.h) remember
// the log position they last synced at and patch only the touched
// vertices instead of re-walking O(n + m) state; a consumer whose
// position fell behind the compacted prefix simply rebuilds in full.
//
// Two indexes keep per-event queries independent of the id space:
//   * alive set: an AliveSet (graph/alive_set.h) of rank/select words,
//     kept by add_node/delete_node, so kth_alive(r) -- the r-th alive
//     id in ascending order -- is O(log n) and a uniform alive draw
//     never materializes the alive list; flat_view() copies it;
//   * max degree: a tournament tree over ids keyed on (degree, -id),
//     synced lazily from the touched log like flat_view(), so only
//     callers of argmax_degree() pay for it.
//
// Once the slab's block classes and the touched log have reached their
// steady sizes, add_edge, remove_edge and delete_node into a caller's
// buffer allocate nothing.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "graph/alive_set.h"
#include "graph/block_slab.h"
#include "graph/flat_view.h"
#include "graph/types.h"
#include "util/check.h"

namespace dash::graph {

class Graph {
 public:
  /// Create n isolated, alive nodes with ids 0..n-1.
  explicit Graph(std::size_t n = 0);

  /// The graph on alive ids 0..n-1 whose edges `endpoints` lists, two
  /// ids per edge: the same lists as Graph(n) plus add_edge for each
  /// pair, an edge listed twice (either way round) counting once. Every
  /// block is laid out once, in id order, with no free block; the
  /// touched log starts empty. Aborts, as add_edge does, on an id >= n
  /// or a self-loop, and on an odd-length list.
  static Graph from_edges(std::size_t n, std::span<const NodeId> endpoints);

  /// Copies duplicate the topology but are *distinct instances*: the
  /// copy draws a fresh uid(), so snapshot consumers synced to the
  /// original never delta-patch against the copy's (independently
  /// mutating) touched log.
  Graph(const Graph& other);
  Graph& operator=(const Graph& other);
  Graph(Graph&&) noexcept = default;
  Graph& operator=(Graph&&) noexcept = default;

  /// Number of node ids ever allocated (alive + deleted).
  std::size_t num_nodes() const { return slab_.num_lists(); }
  /// Number of currently alive nodes.
  std::size_t num_alive() const { return alive_.size(); }
  /// Number of edges between alive nodes.
  std::size_t num_edges() const { return edge_count_; }

  /// False for deleted ids and for ids never allocated.
  bool alive(NodeId v) const {
    return v < slab_.num_lists() && alive_.contains(v);
  }

  /// The r-th alive id in ascending order, i.e. alive_nodes()[r], in
  /// O(log n). r must be < num_alive().
  NodeId kth_alive(std::size_t r) const { return alive_.kth(r); }

  /// The alive ids as rank/select words: iterating it visits them in
  /// ascending order, one word at a time. Valid until the next mutation.
  const AliveSet& alive_set() const { return alive_; }

  /// Alive id of maximum degree, lowest id on ties; kInvalidNode when
  /// no node is alive. O(log n) per vertex touched since the last call.
  NodeId argmax_degree() const;

  /// Append one new isolated node; returns its id.
  NodeId add_node();

  /// Add undirected edge {a,b}. Both endpoints must be alive and distinct.
  /// Returns true if the edge was newly inserted, false if it already
  /// existed (simple graph: parallel edges are not represented).
  bool add_edge(NodeId a, NodeId b);

  /// Remove edge {a,b} if present; returns true if an edge was removed.
  bool remove_edge(NodeId a, NodeId b);

  bool has_edge(NodeId a, NodeId b) const;

  /// Delete node v: marks it dead and removes all incident edges.
  /// Writes v's neighbor set at the moment of deletion (sorted) into
  /// `former_neighbors`, whose capacity is reused.
  void delete_node(NodeId v, std::vector<NodeId>& former_neighbors);
  /// The same, returning the former neighbors.
  std::vector<NodeId> delete_node(NodeId v);

  /// Sorted adjacency of an alive node: a view into the node's slab
  /// block, valid until the next mutation of the graph (any mutation
  /// may move or recycle blocks). Callers that need the list across a
  /// mutation must copy it first.
  std::span<const NodeId> neighbors(NodeId v) const {
    check_alive(v);
    return slab_.list(v);
  }

  std::size_t degree(NodeId v) const {
    check_alive(v);
    return slab_.size(v);
  }

  /// Every id's sorted adjacency block, read-only: list(v) is
  /// neighbors(v) for an alive id and empty for a dead one, without the
  /// alive check. For walks that read blocks of ids they have not
  /// checked; valid as neighbors() is.
  const BlockSlab& adjacency() const { return slab_; }

  /// All alive node ids, ascending. Allocates per call; sweeps should
  /// iterate alive_set() instead, rank lookups use kth_alive(), and
  /// uniform draws graph::sample_alive (graph/sample.h).
  std::vector<NodeId> alive_nodes() const;

  /// Monotone mutation counter: bumped by every topology change (node
  /// add/delete, edge insert/erase). Snapshots key their freshness on
  /// it.
  std::uint64_t generation() const { return generation_; }

  /// The graph's cached CSR snapshot, refreshed lazily when stale --
  /// every traversal between two mutations shares one refresh, and a
  /// refresh patches only the touched vertices when the touched log
  /// allows it. The returned view is valid until the next mutation.
  /// Not synchronized: concurrent readers must ensure freshness (call
  /// this once) before sharing the view across threads.
  const FlatView& flat_view() const;

  /// Structural equality on the alive subgraph (same alive set + edges).
  bool same_topology(const Graph& other) const;

  // ---- delta-snapshot interface (see graph/flat_view.h) --------------

  /// Process-unique instance id; fresh per constructed/copied graph,
  /// stolen by moves. Snapshot consumers patch only against the
  /// instance they were built from.
  std::uint64_t uid() const { return uid_; }

  /// Sequence number of the oldest retained touched-log entry.
  std::uint64_t touched_begin() const { return touched_base_; }
  /// Sequence number one past the newest touched-log entry.
  std::uint64_t touched_end() const {
    return touched_base_ + touched_.size();
  }
  /// Retained touched vertices (entry i has sequence touched_begin()+i;
  /// duplicates are expected, consumers dedupe).
  const std::vector<NodeId>& touched_log() const { return touched_; }

  // ---- slab introspection (tests, telemetry) --------------------------

  /// Total slab entries (live blocks + recycled free blocks).
  std::size_t slab_size() const { return slab_.slab_size(); }
  /// Entries currently parked on the per-class free lists.
  std::size_t slab_free_entries() const { return slab_.free_entries(); }

 private:
  friend class FlatView;

  /// Inline: neighbors() and degree() run it on every call.
  void check_alive(NodeId v) const {
    DASH_CHECK_MSG(v < slab_.num_lists(), "node id out of range");
    DASH_CHECK_MSG(alive_.contains(v), "operation on deleted node");
  }
  void touch(NodeId v);
  /// Bring the max-degree tree up to date with the touched log.
  void sync_degree_tree() const;
  /// Insert x into v's sorted block; returns true on insert, false if
  /// already present.
  bool block_insert(NodeId v, NodeId x);
  /// Erase x from v's sorted block; returns true if it was present.
  bool block_erase(NodeId v, NodeId x);

  /// Per-vertex sorted neighbor blocks.
  BlockSlab slab_;

  /// Alive ids; bits past num_nodes() stay clear.
  AliveSet alive_;
  std::size_t edge_count_ = 0;
  std::uint64_t generation_ = 0;
  std::uint64_t uid_ = 0;

  /// Touched-vertex log: compacted (older half dropped, base advanced)
  /// when it reaches ~2n entries, which forces only consumers lagging
  /// more than ~n entries into the full-rebuild path.
  std::vector<NodeId> touched_;
  std::uint64_t touched_base_ = 0;

  mutable FlatView view_;  ///< lazy CSR cache, stamped by generation_

  /// Max-degree tournament tree: leaves [L, 2L) hold
  /// (degree + 1) << 32 | ~id for alive ids and 0 otherwise, inner
  /// node i the max of 2i and 2i+1, so the root names the
  /// highest-degree, lowest-id alive node. Empty until the first
  /// argmax_degree() and in copies; degree_tree_seq_ is the
  /// touched-log position it was last synced at.
  mutable std::vector<std::uint64_t> degree_tree_;
  mutable std::uint64_t degree_tree_seq_ = 0;
};

}  // namespace dash::graph
