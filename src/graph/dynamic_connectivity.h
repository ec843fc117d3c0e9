// dynamic_connectivity.h -- incremental connectivity over a mutating
// Graph, replacing the per-round O(n+m) BFS that connectivity-hungry
// observers used to pay.
//
// The tracker mirrors the engine's mutation stream instead of
// re-scanning:
//
//   * edge/node insertions are pure union-find merges (the insert-only
//     direction is exact and O(alpha) per event);
//   * deletions cannot be expressed in a union-find, so they follow an
//     amortized rebuild-on-delete path: a deletion whose caller can
//     certify "the survivors stayed mutually connected" (the healing
//     layer proves this through the healing forest: one shared
//     component id => one G'-tree => reconnected, see
//     api::Network::remove) costs O(alpha); an uncertified deletion
//     only *seeds* a lazy re-scan. The next query runs one BFS over
//     exactly the affected region -- never the whole graph -- and
//     re-partitions it with UnionFind::reroot.
//
// Cost model: a certified round touching k vertices pays O(k * alpha);
// an uncertified round defers an O(|affected component|) re-scan to the
// next query. Component count and largest-component size are maintained
// as a size histogram, so both are O(1) after the flush. Every resize
// adds the new size to the histogram before it removes the old one:
// removed first, the giant component's old size would leave the
// maximum to walk down through every empty size to the next-largest
// component (O(n) per deletion from, or join into, the giant), only for
// the add to restore it one step later.
//
// Correctness invariant (the differential tests replay thousands of
// randomized schedules against traversal::connected_components to hold
// this): between flushes every union-find set is a union of true
// components, and every set that may be split finer than the union-find
// knows has at least one alive pending seed in each of its true
// components -- so the flush BFS, started from the alive seeds, visits
// every alive member of every stale set.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "graph/graph.h"
#include "graph/union_find.h"

namespace dash::graph {

class DynamicConnectivity {
 public:
  /// Snapshot the component structure of `g` (one BFS-equivalent pass).
  /// The tracker keeps a pointer to `g` and must observe every later
  /// mutation through the methods below, in the order the graph applies
  /// them -- it is the engine's job (api::Network) to guarantee that.
  explicit DynamicConnectivity(const Graph& g);

  // ---- mutation stream ------------------------------------------------

  /// A fresh isolated node was appended (Graph::add_node). `v` must be
  /// the id the graph returned, i.e. ids stay dense.
  void node_added(NodeId v);

  /// Edge {a,b} was inserted between alive nodes. Idempotent for edges
  /// the tracker already considers merged.
  void edge_added(NodeId a, NodeId b);

  /// Edge {a,b} was removed (both endpoints still alive). The possible
  /// component split is resolved lazily by the next query.
  void edge_removed(NodeId a, NodeId b);

  /// Node `v` was deleted; `survivors` is its neighbor set at the
  /// moment of deletion (all still alive). `may_split` = false is the
  /// caller's certificate that the survivors remained mutually
  /// connected without v (the O(alpha) fast path); true seeds the lazy
  /// re-scan of v's component. With fewer than two survivors no split
  /// is possible and the certificate is irrelevant.
  void node_removed(NodeId v, const std::vector<NodeId>& survivors,
                    bool may_split);

  /// Simultaneous multi-node deletion (the footnote-1 batch protocol):
  /// `survivors` is the union of the batch members' surviving neighbor
  /// sets. `may_split` = false is the caller's certificate that the
  /// survivors are still mutually connected without the batch (same
  /// forest argument as node_removed: truncate any survivor pair's old
  /// path at the first batch member and route through the survivors'
  /// shared component) -- the whole round then costs O(|members| *
  /// alpha) with no re-scan. true seeds the lazy re-scan. With fewer
  /// than two survivors the certificate is irrelevant.
  void batch_removed(const std::vector<NodeId>& members,
                     const std::vector<NodeId>& survivors, bool may_split);

  // ---- queries (amortized: flush any pending re-scan first) -----------

  /// All alive nodes form one component (vacuously true for <= 1).
  bool connected();

  /// Number of components among alive nodes (0 when none are alive).
  std::size_t component_count();

  /// Size of the largest component (0 when no nodes are alive).
  std::size_t largest_component();

  /// Both nodes alive and in the same component.
  bool same_component(NodeId a, NodeId b);

  /// Size of the component containing alive node v.
  std::size_t component_size(NodeId v);

  // ---- instrumentation ------------------------------------------------

  /// Number of lazy re-scan flushes performed so far.
  std::size_t rebuilds() const { return rebuilds_; }
  /// Total nodes visited across all re-scans (the amortized delete
  /// cost; certified rounds contribute nothing).
  std::size_t nodes_rescanned() const { return nodes_rescanned_; }
  /// True while an un-flushed split candidate is queued.
  bool rescan_pending() const { return !seeds_.empty(); }
  /// Monotone count of events that may have changed the partition by
  /// more than dropping deleted members: merging edge insertions, node
  /// insertions and re-scan flushes. Certified deletions and edges
  /// inside one component leave it alone, so an unchanged count with no
  /// re-scan pending means every surviving pair of nodes is exactly as
  /// connected as it was (graph::SnapshotStore reuses its labels then).
  std::uint64_t partition_changes() const { return partition_changes_; }

 private:
  void flush();
  void seed(NodeId v);
  void hist_add(std::size_t s);
  void hist_remove(std::size_t s);
  /// Shared deletion bookkeeping: drop one alive member from v's set.
  void drop_alive_member(NodeId v);

  const Graph* g_;
  UnionFind uf_;
  /// Alive members per set, valid at current roots only.
  std::vector<std::uint32_t> alive_size_;
  /// Histogram of alive-set sizes; largest_ is its maintained maximum.
  std::vector<std::uint32_t> size_count_;
  std::size_t largest_ = 0;
  std::size_t components_ = 0;

  std::vector<NodeId> seeds_;
  std::vector<char> is_seed_;
  /// Epoch-stamped scratch marks (no O(n) clearing per flush).
  std::vector<std::uint64_t> visit_epoch_;
  std::vector<std::uint64_t> root_epoch_;
  std::uint64_t epoch_ = 0;
  /// Re-scan workspace: the flush BFS packs its groups here
  /// (scan_offsets_ delimits them), reused across flushes.
  std::vector<NodeId> scan_nodes_;
  std::vector<std::size_t> scan_offsets_;

  std::size_t rebuilds_ = 0;
  std::size_t nodes_rescanned_ = 0;
  std::uint64_t partition_changes_ = 0;
};

}  // namespace dash::graph
