// invariants.h -- runtime checkers for every provable property the
// paper states. Tests and (optionally) experiment runs evaluate these
// after each deletion+heal round.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/healing_state.h"
#include "core/strategy.h"

namespace dash::graph {
class DynamicConnectivity;
}

namespace dash::analysis {

using core::DeletionContext;
using core::Graph;
using core::HealAction;
using core::HealingState;
using graph::NodeId;

/// Result of one invariant check; `violation` is empty iff `ok`.
struct Check {
  bool ok = true;
  std::string violation;

  static Check pass() { return {}; }
  static Check fail(std::string why) { return {false, std::move(why)}; }
};

/// The healed network keeps all alive nodes in one component.
Check check_connectivity(const Graph& g);

/// Lemma 5 / weight conservation: sum of alive weights stays n as long
/// as every deletion had a surviving neighbor to inherit the weight.
Check check_weight_conservation(const Graph& g, const HealingState& state,
                                std::uint64_t expected_total);

/// Locality-awareness: every edge the heal added joins two former
/// neighbors of the deleted node.
Check check_locality(const HealAction& action, const DeletionContext& ctx);

/// Theorem 1: delta(v) <= 2 log2 n for all v (n = initial node count).
Check check_delta_bound(const HealingState& state, std::size_t n);

/// Which of the optional properties a HealingForestWalk checks.
struct ForestWalkOptions {
  /// Lemma 1: G' is a forest. Holds for healers whose
  /// maintains_forest() is true.
  bool require_forest = true;
  /// Lemma 4: rem(v) >= 2^{delta(v)/2} for every alive v. Proven for
  /// DASH only (the potential argument is DASH-specific).
  bool check_rem_bound = false;
};

/// The healing-forest properties, checked in one walk of G' that
/// visits each alive node and each E' entry once (O(n + |E'|), plus one
/// adjacency probe per undirected E' edge). Trees start at their
/// lowest alive id, taken from the graph's alive set, and a
/// G'-singleton is settled without a BFS. Each BFS-tree edge is probed
/// once, when its child is dequeued, by a binary search of the child's
/// own sorted block -- the block the walk reads for delta anyway; an
/// E' edge off the BFS tree (only a cycle has one) is probed from its
/// lower end.
/// check() reports the first failing property in this order:
///   1. G' is a forest (only with require_forest);
///   2. component ids are uniform inside each G'-tree and distinct
///      across trees (what makes UN(v,G) well defined);
///   3. E' subset of E: every healing edge is still a network edge;
///   4. delta(v) == degree_now(v) - initial_degree(v) for alive v;
///   5. Lemma 4 (only with check_rem_bound), every rem(v) of a tree
///      taken from subtree weights; undefined on a tree with a cycle,
///      which fails as "rem(<root>) undefined: ...".
/// Trees are walked from their lowest alive id in ascending order, and
/// within a property the node named is the lowest failing one, as an
/// ascending scan per property would name it; a failing E' edge is
/// named at its lower endpoint when both are alive, else at its alive
/// one, by that node's first failing entry. E' must be a simple
/// symmetric adjacency over the graph's ids, which HealingState keeps
/// and HealingState::load enforces.
///
/// The work buffers are reused across calls by one thread at a time,
/// and a warm call allocates nothing: the visited and id marks are
/// bitsets of n/8 bytes each, cleared once per call; the BFS queue and
/// its parent positions hold n + 1 slots, since every E' entry is
/// stored at the queue's tail and kept only if unseen (no branch on
/// the marks), so a tree over all n ids still stores at index n; the
/// subtree weights serve Lemma 4. Six queue slots before a node is
/// dequeued, its blocks in G and G' are prefetched.
/// Cost, on BA(n, 2) after n/2 neighborofmax deletions (bench/
/// million_core's battery section, rem bound off / on): about 0.21 /
/// 0.27 ms at n = 10^4, 2.2 / 3.1 ms at 10^5 and 59 / 85 ms at 10^6.
/// A battery of perfbench's paper-targeted (n = 4096, about 2,048
/// alive nodes and 1,190 E' edges) takes about 70 us traced.
class HealingForestWalk {
 public:
  Check check(const Graph& g, const HealingState& state,
              ForestWalkOptions opts);

 private:
  std::vector<std::uint64_t> seen_;     ///< visited bit per node
  std::vector<std::uint64_t> id_seen_;  ///< used bit per component id
  std::vector<NodeId> queue_;           ///< one tree in BFS order, n + 1
  std::vector<std::uint32_t> parent_;   ///< queue position of the parent
  std::vector<std::uint64_t> subtree_;  ///< W(subtree), by queue position
  std::vector<std::uint64_t> heaviest_; ///< heaviest child subtree
};

/// Differential check for the incremental connectivity subsystem: the
/// tracker's component structure (count, largest size, and the full
/// alive-node partition) matches a fresh BFS labelling of `g`. Non-const
/// tracker: queries flush its lazy re-scan.
Check check_component_tracker(const Graph& g,
                              graph::DynamicConnectivity& tracker);

}  // namespace dash::analysis
