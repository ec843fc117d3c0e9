// healing_state.h -- the shared bookkeeping all healing strategies update.
//
// This models the per-node state of the paper's Section 2:
//   * initial ids ("random number in [0,1]"), realized as a random
//     permutation of 0..n-1 -- only the order of ids matters, and a
//     permutation gives distinct ids with the same order statistics;
//   * component ids maintained by min-id propagation over the healing
//     graph G' (Algorithm 1 line 5), with per-node counts of id changes
//     and messages (Lemmas 8/9, Figures 9(a)/9(b));
//   * delta(v): the paper's degree increase "compared to its initial
//     degree" -- the *net* change: +1 per new healing edge, -1 per
//     incident edge lost to a neighbor's deletion. The net convention is
//     load-bearing: every reconstruction-tree member lost its edge to
//     the deleted node, which is exactly why the paper's case analysis
//     (Lemma 4) charges an RT root only +1 and an internal node at most
//     +2 even though it may touch three new tree edges;
//   * w(v): vertex weights for the rem(v) potential-function analysis
//     (weight 1 at start; a deleted node's weight moves to a G'-neighbor,
//     Lemma 2);
//   * the healing graph G' = (V, E') itself, E' being all edges added by
//     healing (a forest for component-aware strategies, Lemma 1).
//
// E' is kept as one list per id in a graph::BlockSlab, the allocator
// under Graph's adjacency (graph/block_slab.h). A healing edge appends
// to both endpoints' lists and a detach erases without reordering the
// rest, so every list holds its entries in insertion order -- the
// order checkpoints, traces and the forest walk's violation strings
// read. A deletion returns the dead node's block to the slab's free
// lists. With the caller-owned buffers of begin_deletion and
// reconnection_set, and the min-id walk's frontier kept here, a
// deletion in steady state allocates nothing in this class.
#pragma once

#include <cstdint>
#include <istream>
#include <ostream>
#include <span>
#include <vector>

#include "graph/block_slab.h"
#include "graph/graph.h"
#include "util/rng.h"

namespace dash::core {

using graph::Graph;
using graph::NodeId;

/// Everything a strategy needs to know about a deletion, captured
/// *before* the node is removed from the graph.
struct DeletionContext {
  NodeId deleted = graph::kInvalidNode;
  std::vector<NodeId> neighbors_g;       ///< N(v, G) at deletion time
  std::vector<NodeId> forest_neighbors;  ///< N(v, G') at deletion time
  std::uint64_t component_id = 0;        ///< v's component id at deletion
  std::uint64_t weight = 0;              ///< w(v) at deletion
};

/// Context of one deleted cluster of a simultaneous deletion (core/batch.h),
/// captured before removal.
struct ClusterContext {
  std::vector<NodeId> deleted;            ///< the cluster's members
  std::vector<NodeId> survivor_neighbors; ///< surviving N(C, G), sorted
  std::vector<NodeId> forest_neighbors;   ///< surviving N(C, G')
  std::vector<std::uint64_t> member_component_ids;  ///< ids of members
  std::uint64_t weight = 0;               ///< total cluster weight
};

struct BatchDeletionContext {
  std::vector<ClusterContext> clusters;
  std::size_t total_deleted = 0;
};

class HealingState {
 public:
  /// Snapshot initial degrees and assign random ids. `g` must be the
  /// network at time 0.
  HealingState(const Graph& g, dash::util::Rng& rng);

  // ---- per-node accessors -------------------------------------------

  /// The paper's delta(v): net degree change vs the initial degree.
  /// Negative when v lost more neighbors than healing reconnected.
  /// Invariant (tested): delta(v) == degree_now(v) - initial_degree(v)
  /// for every alive v.
  std::int32_t delta(NodeId v) const { return delta_[v]; }
  /// Degree increase recomputed from the graph; equals delta(v) for
  /// alive nodes and exists as an independent cross-check.
  std::int64_t raw_degree_increase(const Graph& g, NodeId v) const;
  std::uint64_t initial_id(NodeId v) const { return initial_id_[v]; }
  std::uint64_t component_id(NodeId v) const { return component_id_[v]; }
  std::uint64_t weight(NodeId v) const { return weight_[v]; }
  std::size_t initial_degree(NodeId v) const { return initial_degree_[v]; }
  std::uint32_t id_changes(NodeId v) const { return id_changes_[v]; }
  std::uint64_t messages_sent(NodeId v) const { return msgs_sent_[v]; }
  std::uint64_t messages_received(NodeId v) const { return msgs_recv_[v]; }
  std::uint64_t messages_total(NodeId v) const {
    return msgs_sent_[v] + msgs_recv_[v];
  }

  /// Size of the node-id space this state covers (dead ids included);
  /// equals Graph::num_nodes() of the matching graph.
  std::size_t num_nodes() const { return initial_degree_.size(); }

  /// Max over time and over nodes of delta (the paper's headline
  /// metric: the adversary wins by overloading a node at any point in
  /// time). Never negative (all deltas start at 0).
  std::uint32_t max_delta_ever() const {
    return static_cast<std::uint32_t>(max_delta_ever_);
  }
  std::uint32_t max_id_changes() const;
  std::uint64_t max_messages() const;       ///< max over nodes, sent+received
  std::uint64_t max_messages_sent() const;  ///< max over nodes, sent only

  // ---- the healing graph G' -----------------------------------------

  /// v's E' neighbors in insertion order: a view valid until E' next
  /// changes.
  std::span<const NodeId> forest_neighbors(NodeId v) const {
    return forest_.list(v);
  }
  std::size_t num_healing_edges() const { return healing_edges_; }

  /// All alive nodes in v's G'-component (v included). Works for cyclic
  /// E' too (visited-set BFS).
  std::vector<NodeId> healing_component(const Graph& g, NodeId v) const;

  // ---- churn: organic node arrivals ----------------------------------

  /// Reconfigurable networks also grow: admit a brand-new node into the
  /// network, wired to `attach_to` (all alive). Performs the
  /// Graph::add_node + edge insertions and extends the healing state:
  /// the newcomer gets a fresh unique id, weight 1, delta 0, and the
  /// join edges shift everyone's *baseline* degree (they are organic
  /// growth, not healing burden -- delta is unchanged for the targets).
  /// Returns the new node's id.
  NodeId join_node(Graph& g, const std::vector<NodeId>& attach_to);

  // ---- deletion/healing protocol ------------------------------------

  /// Capture the context of v's deletion, transfer its weight to a
  /// G'-neighbor (or a G-neighbor if it has none), detach v from G',
  /// and charge every surviving neighbor the -1 degree it is about to
  /// lose. Must be called *before* Graph::delete_node(v). Fills `ctx`,
  /// whose buffers are reused.
  void begin_deletion(const Graph& g, NodeId v, DeletionContext& ctx);
  /// The same, returning a fresh context.
  DeletionContext begin_deletion(const Graph& g, NodeId v);

  /// UN(v, G) of Section 2.1, and UN(C, G) for a deleted cluster C: one
  /// representative (lowest initial id) per component-id partition of
  /// `neighbors`, skipping every node whose id is in `own_ids` -- the
  /// deleted nodes' own ids, whose trees arrive through N(v, G'). In
  /// order of each partition's first member; written into `out`, whose
  /// capacity is reused.
  void representatives(std::span<const NodeId> neighbors,
                       std::span<const std::uint64_t> own_ids,
                       std::vector<NodeId>& out) const;

  /// UN(v,G) + N(v,G'): the node set every component-aware strategy
  /// reconnects. Sorted ascending by (delta, initial id) -- the order
  /// DASH fills its reconstruction tree in. Written into `out`, whose
  /// capacity is reused.
  void reconnection_set(const DeletionContext& ctx,
                        std::vector<NodeId>& out) const;
  std::vector<NodeId> reconnection_set(const DeletionContext& ctx) const;

  /// Add {a,b} to G (if absent) and to E'. Updates delta for genuinely
  /// new graph edges only. Returns true if the graph edge was new.
  bool add_healing_edge(Graph& g, NodeId a, NodeId b);

  /// Algorithm 1 line 5: set every node of the G'-component containing
  /// `seeds` to the minimum component id found among the seeds, counting
  /// id changes and the messages each change broadcasts to G-neighbors.
  /// Returns the number of nodes whose id changed.
  ///
  /// Precondition: the seeds are connected in G' (the heal's new edges
  /// join them), and every G'-tree they merged was uniformly labelled
  /// before the heal and holds a seed -- the id invariant
  /// analysis::HealingForestWalk verifies. The walk then starts from
  /// the seeds that lack the minimum and visits exactly the nodes whose
  /// id changes, never the rest of the merged tree, so its cost follows
  /// the relabelling (Lemma 8), not the tree's size.
  std::size_t propagate_min_id(const Graph& g,
                               const std::vector<NodeId>& seeds);

  /// Batch-deletion counterpart of begin_deletion: per-cluster weight
  /// transfer, survivor delta charges, and G' detachment for a
  /// simultaneous deletion (paper footnote 1). Called by
  /// core::begin_batch_deletion.
  void begin_cluster_deletions(const Graph& g,
                               const BatchDeletionContext& ctx,
                               const std::vector<char>& in_batch);

  /// Sort `nodes` ascending by (delta, initial id); deterministic.
  void sort_by_delta(std::vector<NodeId>& nodes) const;

  /// Sum of weights over alive nodes (the analysis keeps this == n until
  /// weight is dropped with the final isolated deletions).
  std::uint64_t total_alive_weight(const Graph& g) const;

  // ---- checkpointing -------------------------------------------------

  /// Serialize the full state (text format, versioned). Together with
  /// graph::write_edge_list this checkpoints a running experiment.
  void save(std::ostream& out) const;

  /// Inverse of save(). Throws std::runtime_error on malformed input.
  static HealingState load(std::istream& in);

  /// Deep equality (all per-node fields + counters, E' list by list);
  /// for tests.
  bool operator==(const HealingState& other) const;

 private:
  HealingState() = default;  // for load()

  /// Lemma 2's heir of a deleted node or cluster: the lowest initial id
  /// among its surviving G'-neighbors, or among its G-neighbors when it
  /// has none; kInvalidNode when both lists are empty.
  NodeId heir(std::span<const NodeId> forest_neighbors,
              std::span<const NodeId> neighbors_g) const;
  /// Remove v from u's E' list, keeping the order of the rest.
  void forest_erase(NodeId u, NodeId v);

  std::vector<std::size_t> initial_degree_;
  std::vector<std::uint64_t> initial_id_;
  std::vector<std::uint64_t> component_id_;
  std::vector<std::int32_t> delta_;
  std::vector<std::uint64_t> weight_;
  std::vector<std::uint32_t> id_changes_;
  std::vector<std::uint64_t> msgs_sent_;
  std::vector<std::uint64_t> msgs_recv_;
  graph::BlockSlab forest_;  ///< E', one insertion-ordered list per id
  std::size_t healing_edges_ = 0;
  std::int32_t max_delta_ever_ = 0;
  std::uint64_t next_fresh_id_ = 0;  ///< id source for joined nodes
  /// propagate_min_id's frontier: scratch, not state, so save() and
  /// operator== ignore it.
  std::vector<NodeId> frontier_;
};

}  // namespace dash::core
