// distributed_dash.h -- DASH as a distributed protocol over a
// synchronous round-based message-passing network.
//
// The sequential engine (core/) applies Algorithm 1 atomically; this
// module executes it the way the paper argues it runs in a real
// overlay, and measures the latency/message claims of Theorem 1:
//
//   * round t:   the adversary deletes v;
//   * round t+1: every surviving neighbor of v detects the failure.
//     Using neighbor-of-neighbor (NoN) state -- each node knows, for
//     every neighbor w, w's component id, delta, initial id and whether
//     w was a G'-neighbor of v -- all members of the reconnection set
//     compute the *same* reconstruction tree locally and attach their
//     incident edges. Reconnection latency is therefore O(1) rounds
//     (Lemma 7), and we assert it.
//   * rounds t+2...: min-id flooding. A node whose component id
//     decreased in the previous round sends its new id to all its
//     G-neighbors (these are the messages Lemma 8 counts); only
//     G'-neighbors adopt a smaller id (component identity must not leak
//     across G'-component boundaries). Flooding quiesces when no id
//     changed; the number of rounds is the propagation latency that
//     Lemma 9 bounds by O(log n) amortized.
//
// The engine's per-node state is exactly what a node can maintain
// locally under the paper's NoN assumption; no global state is read
// during healing decisions.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "graph/graph.h"
#include "util/rng.h"

namespace dash::sim {

using graph::Graph;
using graph::NodeId;

struct SimMetrics {
  /// Flooding rounds needed after each deletion (index = deletion).
  std::vector<std::uint32_t> propagation_rounds;
  /// Reconnection latency per deletion; always 1 round by construction.
  std::vector<std::uint32_t> reconnect_rounds;
  std::uint64_t total_messages = 0;
  std::vector<std::uint64_t> messages_per_node;  ///< sent + received
  std::vector<std::uint32_t> id_changes_per_node;

  std::uint64_t max_messages_per_node() const;
  std::uint32_t max_id_changes() const;
  double mean_propagation_rounds() const;
  std::uint32_t max_propagation_rounds() const;
};

/// Which local reconnection rule the node agents apply. Both are pure
/// functions of NoN state, so either runs at O(1) reconnection latency.
enum class SimHealPolicy {
  kDash,   ///< Algorithm 1: delta-ordered complete binary tree
  kSdash,  ///< Algorithm 3: surrogate star when the budget allows
};

class DistributedDashSim {
 public:
  /// Takes ownership of the time-0 network. `rng` drives the initial
  /// id permutation; using the same seed stream as a sequential
  /// core::HealingState yields bit-identical ids (the equivalence tests
  /// rely on this).
  ///
  /// `max_message_delay` models asynchrony: each flooded id-update is
  /// delivered after a uniform delay in [1, max_message_delay] rounds.
  /// 1 (default) is the paper's synchronous model. Because min-id
  /// gossip is monotone (receivers only ever adopt smaller ids), the
  /// fixed point is delay-independent -- only the latency grows; the
  /// tests assert both facts.
  DistributedDashSim(Graph g, dash::util::Rng& rng,
                     std::uint32_t max_message_delay = 1,
                     SimHealPolicy policy = SimHealPolicy::kDash);

  /// Delete v and run the distributed heal to quiescence.
  /// Returns the number of simulated rounds consumed (detection +
  /// reconnection + flooding).
  std::uint32_t delete_and_heal(NodeId v);

  const Graph& network() const { return g_; }
  const SimMetrics& metrics() const { return metrics_; }

  std::uint64_t component_id(NodeId v) const { return comp_id_[v]; }
  std::uint64_t initial_id(NodeId v) const { return initial_id_[v]; }
  /// Net degree change vs the initial degree (same convention as
  /// core::HealingState::delta).
  std::int32_t delta(NodeId v) const { return delta_[v]; }
  /// Max over time and nodes of delta; never negative.
  std::uint32_t max_delta() const {
    return static_cast<std::uint32_t>(max_delta_ever_);
  }
  const std::vector<NodeId>& forest_neighbors(NodeId v) const {
    return forest_adj_[v];
  }

 private:
  /// The deterministic local computation every reconnection-set member
  /// performs from NoN state: UN(v,G) u N(v,G') sorted by (delta,
  /// initial id).
  std::vector<NodeId> compute_reconnection_set(
      const std::vector<NodeId>& neighbors_g,
      const std::vector<NodeId>& forest_neighbors,
      std::uint64_t deleted_component_id) const;

  /// Synchronous min-id flooding from the freshly merged tree; returns
  /// rounds until quiescence and accounts messages.
  std::uint32_t flood_min_id(const std::vector<NodeId>& seeds);

  Graph g_;
  std::vector<std::uint64_t> initial_id_;
  std::vector<std::uint64_t> comp_id_;
  std::vector<std::int32_t> delta_;
  std::vector<std::vector<NodeId>> forest_adj_;
  std::int32_t max_delta_ever_ = 0;
  std::uint32_t max_message_delay_ = 1;
  SimHealPolicy policy_ = SimHealPolicy::kDash;
  dash::util::Rng delay_rng_{0};
  SimMetrics metrics_;
};

/// The standard distributed schedule every sim bench runs: delete the
/// current max-degree node (the MaxNode adversary) and heal, until one
/// node remains or `max_deletions` is hit. `on_deletion(deletions)`
/// fires after each deletion for progress reporting and may return
/// false to stop the schedule early (fail-fast on a detected anomaly);
/// pass nullptr when not needed. Returns the number of deletions
/// performed. The sequential engine's equivalent workload is the
/// scenario "targeted:maxnode".
std::size_t run_max_degree_attack(
    DistributedDashSim& sim,
    std::size_t max_deletions = static_cast<std::size_t>(-1),
    const std::function<bool(std::size_t)>& on_deletion = nullptr);

}  // namespace dash::sim
