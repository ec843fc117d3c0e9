// observer.h -- the pluggable measurement/validation pipeline of the
// api::Network engine.
//
// The engine owns the protocol loop (delete -> heal -> propagate);
// measurement is a list of observers registered on the engine,
// notified in registration order -- register producers before
// consumers (e.g. a StretchObserver before the SinkObserver that logs
// its samples into the output rows).
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "api/metrics.h"
#include "core/healing_state.h"
#include "core/strategy.h"

namespace dash::graph {
class DynamicConnectivity;
}

namespace dash::api {

class Network;

/// One engine round: a deletion (or simultaneous batch of deletions)
/// followed by a heal. For single deletions `ctx`/`action` point at the
/// deletion context and the strategy's heal record; for batch rounds
/// they are null (the paper's footnote-1 batch protocol has per-cluster
/// contexts, summarized in the engine metrics instead).
struct RoundEvent {
  std::size_t round = 0;  ///< 1-based, == Metrics::deletions after the round
  std::size_t deletions_in_round = 1;
  /// Single-deletion victim; first batch member for batch rounds.
  graph::NodeId victim = graph::kInvalidNode;
  const core::DeletionContext* ctx = nullptr;  ///< null for batch rounds
  const core::HealAction* action = nullptr;    ///< null for batch rounds
  /// The full victim set of a batch round (null for single-deletion
  /// rounds); points at the engine caller's vector, valid for the
  /// round's pipeline only -- copy to retain (replay::RecorderSink
  /// needs the whole batch, not just the representative victim).
  const std::vector<graph::NodeId>* batch = nullptr;
  /// Healing edges inserted into G this round (summed over the batch's
  /// clusters for batch rounds).
  std::size_t edges_added = 0;

  /// Post-heal connectivity of the network. Computed lazily on the
  /// first call and cached for the rest of the round's pipeline. The
  /// answer comes from the engine's incremental
  /// graph::DynamicConnectivity (O(alpha) on certified rounds), checked
  /// against a full BFS scan in kVerify; events detached from an
  /// engine answer true. Rounds where nothing asks pay nothing. The
  /// engine folds any computed value into Metrics::stayed_connected
  /// after the observers ran.
  bool connected() const;
  /// True once some pipeline stage paid for the connectivity check.
  bool connectivity_checked() const { return connected_.has_value(); }

 private:
  friend class Network;
  const graph::Graph* graph_ = nullptr;
  /// Null for detached events.
  graph::DynamicConnectivity* tracker_ = nullptr;
  /// kVerify engines cross-check every tracker answer against the scan.
  bool verify_ = false;
  /// Round-scoped cache. The engine constructs a fresh event per round
  /// and asserts this is unset when the round's pipeline starts, so a
  /// stale verdict can never leak across rounds.
  mutable std::optional<bool> connected_;
};

/// One organic arrival (Network::join). `attached_to` views the join
/// caller's list and is valid for the callback only -- copy it to
/// keep it.
struct JoinEvent {
  graph::NodeId joined = graph::kInvalidNode;
  std::span<const graph::NodeId> attached_to;
};

class Observer {
 public:
  virtual ~Observer() = default;

  virtual std::string name() const = 0;

  /// Called once when registered on an engine; snapshot baselines here
  /// (initial size, original distances, ...).
  virtual void on_attach(const Network& /*net*/) {}

  /// Called before the round's deletion mutates the network. `round`
  /// is the id the matching RoundEvent will carry: the cumulative
  /// deletion count once this round completes (for a batch round that
  /// is current deletions + batch size).
  virtual void on_round_begin(const Network& /*net*/,
                              std::size_t /*round*/) {}

  /// Called after the heal and the engine's round accounting (the
  /// event's metrics are post-round), immediately before on_round_end.
  /// Only fires for single-deletion rounds, where ev.ctx/ev.action
  /// describe the one heal; batch rounds go straight to on_round_end.
  virtual void on_heal(const Network& /*net*/, const RoundEvent& /*ev*/) {}

  /// Called after the engine finished the round's accounting (always,
  /// for both single and batch rounds).
  virtual void on_round_end(const Network& /*net*/,
                            const RoundEvent& /*ev*/) {}

  /// Called after an organic arrival was wired in.
  virtual void on_join(const Network& /*net*/, const JoinEvent& /*ev*/) {}

  /// Called by Network::play when a scenario phase is about to execute,
  /// with the phase's canonical spec. Purely informational (phases are
  /// an orchestration construct, not a protocol event); the replay
  /// recorder uses it to mark phase boundaries in its traces.
  virtual void on_phase(const Network& /*net*/, const std::string& /*spec*/) {
  }

  /// Called by Network::finish(), which ends every play(); contribute
  /// observer-owned metrics (violation, stretch, ...) to the outgoing
  /// snapshot.
  virtual void on_finish(const Network& /*net*/, Metrics& /*out*/) {}
};

}  // namespace dash::api
