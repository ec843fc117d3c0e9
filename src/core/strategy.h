// strategy.h -- the healing-strategy interface.
//
// A strategy is invoked once per deletion, *after* the node has been
// removed from the graph, with the context captured just before removal.
// It may add edges only among ctx.neighbors_g (locality-awareness); the
// invariant checkers in analysis/ verify this for every heal.
//
// Strategies may keep scratch buffers that each heal reuses (DASH and
// SDASH keep their reconnection set), so one strategy object serves one
// network at a time; api::run_suite builds one per instance.
#pragma once

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/healing_state.h"

namespace dash::core {

/// Record of one heal, for metrics and invariant checking.
struct HealAction {
  /// Edges genuinely added to the network G this round.
  std::vector<std::pair<NodeId, NodeId>> new_graph_edges;
  /// Size of the node set the strategy reconnected (|UN(v,G) u N(v,G')|
  /// for component-aware strategies; |N(v,G)| for naive ones).
  std::size_t reconnection_set_size = 0;
  /// SDASH: true when the surrogate (star) rule fired.
  bool used_surrogate = false;
  /// Nodes whose component id changed during propagation.
  std::size_t ids_rewritten = 0;
};

class HealingStrategy {
 public:
  virtual ~HealingStrategy() = default;

  virtual std::string name() const = 0;

  /// Heal after the deletion described by ctx. `g` no longer contains
  /// the deleted node.
  virtual HealAction heal(Graph& g, HealingState& state,
                          const DeletionContext& ctx) = 0;

  /// Component-aware strategies keep E' a forest (Lemma 1); naive
  /// GraphHeal does not. Invariant checks consult this.
  virtual bool maintains_forest() const { return true; }

  /// Every strategy but NoHeal leaves a deletion's surviving neighbors
  /// connected. Only then does a shared healing-forest component id
  /// certify that the deletion split nothing: NoHeal keeps the ids that
  /// earlier batch heals merged while it breaks their trees apart.
  virtual bool reconnects_survivors() const { return true; }

  virtual std::unique_ptr<HealingStrategy> clone() const = 0;
};

}  // namespace dash::core
