// network.h -- the self-healing network engine: one object that owns
// the graph, the healing state, the healing strategy and the
// incremental connectivity tracker, exposes the paper's protocol as
// events (remove / remove_batch / join), and feeds a pluggable Observer
// pipeline.
//
// Every workload in this repository -- figure benches, the sweep CLI,
// the examples, the schedule-level tests -- drives this engine with
// play() and a declarative Scenario (api/scenario.h), the one driver.
// An adversary the attack registry cannot build rides a targeted phase
// (Scenario::targeted with an AttackerFactory):
//
//   api::Network net(graph::barabasi_albert(256, 2, rng), "dash", rng);
//   api::InvariantObserver inv;
//   net.add_observer(&inv);
//   const api::Metrics m =
//       net.play(api::Scenario::parse("targeted:neighborofmax"), 7);
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "api/metrics.h"
#include "api/observer.h"
#include "api/scenario.h"
#include "core/healing_state.h"
#include "core/strategy.h"
#include "graph/dynamic_connectivity.h"
#include "graph/graph.h"
#include "util/rng.h"

namespace dash::api {

class ServeHandle;

/// How the engine answers connectivity and component queries
/// (RoundEvent::connected(), component_count(), largest_component(),
/// the Metrics component fields, and the finish() check). Both modes
/// answer from the engine's graph::DynamicConnectivity tracker.
enum class ConnectivityMode {
  /// Tracker answers (the default): O(alpha) per certified round, one
  /// re-scan of the affected component per uncertified round.
  kTracker,
  /// Tracker answers with every answer cross-checked against a BFS
  /// scan (DASH_CHECK on divergence). The debug verify flag; also
  /// switched on by setting DASH_VERIFY_CONNECTIVITY=1 in the
  /// environment.
  kVerify,
};

class Network {
 public:
  /// Takes the initial network, the healing strategy, and the RNG
  /// stream used to draw the healing state's initial ids (the caller's
  /// stream, so graph generation and id assignment share one seed
  /// exactly as the experiments require).
  Network(graph::Graph g, std::unique_ptr<core::HealingStrategy> healer,
          dash::util::Rng& rng);

  /// From a healer spec string ("dash", "capped:2", ... -- anything in
  /// core::healer_registry()) and a bare seed.
  Network(graph::Graph g, const std::string& healer_spec,
          std::uint64_t seed);

  /// Resumes from a checkpointed healing state
  /// (core::HealingState::save / graph::write_edge_list): no RNG is
  /// consumed -- the state carries its id assignment -- so re-executing
  /// a recorded event sequence reproduces the original run exactly.
  /// The replay subsystem (replay/play.h) is built on this.
  Network(graph::Graph g, std::unique_ptr<core::HealingStrategy> healer,
          core::HealingState state);

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;
  ~Network();  // out-of-line: ServeHandle is incomplete here

  // ---- observer pipeline --------------------------------------------

  /// Register a non-owned observer (must outlive the engine's use).
  /// Observers are notified in registration order.
  void add_observer(Observer* obs);

  /// Register an engine-owned observer; returns a reference for later
  /// inspection.
  Observer& add_observer(std::unique_ptr<Observer> obs);

  /// First registered observer whose name() matches, or nullptr. Lets
  /// downstream stages (a SinkObserver wired up by run_suite) find
  /// producers (a StretchObserver from SuiteConfig::configure).
  Observer* find_observer(const std::string& name) const;

  // ---- events -------------------------------------------------------

  /// Delete one alive node and heal. Returns the heal record.
  core::HealAction remove(graph::NodeId v);

  /// Delete a set of nodes *simultaneously* (paper footnote 1) and heal
  /// cluster-wise with the DASH batch protocol -- the only batch
  /// healing the paper defines, applied regardless of the configured
  /// single-deletion healer. Counts as one round. Returns one heal
  /// record per deleted cluster.
  std::vector<core::HealAction> remove_batch(
      const std::vector<graph::NodeId>& batch);

  /// Organic arrival: admit a brand-new node wired to `attach_to`
  /// (all alive). Join edges shift baselines, not deltas. Returns the
  /// new node's id.
  graph::NodeId join(const std::vector<graph::NodeId>& attach_to);

  /// Execute a declarative scenario (api/scenario.h): every phase in
  /// order, drawing all randomness (attack seeds, churn coin flips,
  /// batch victim shuffles) from `rng`; then finish() and return the
  /// snapshot. One seed -> one byte-identical run. `opts` carries
  /// play-level knobs (stop_condition).
  Metrics play(const Scenario& scenario, dash::util::Rng& rng,
               const PlayOptions& opts = {});

  /// The same, drawing from a fresh stream seeded with `seed`.
  Metrics play(const Scenario& scenario, std::uint64_t seed,
               const PlayOptions& opts = {});

  /// Snapshot metrics and give every observer its on_finish() chance to
  /// contribute (violation, stretch, ...). Idempotent; play() calls it.
  Metrics finish();

  // ---- concurrent serving -------------------------------------------

  /// Start (or fetch) the concurrent read path: an engine-owned
  /// ServeHandle whose internal observer publishes an immutable
  /// snapshot after every mutation event, so reader threads answer
  /// connected/distance/largest_component queries lock-free from a
  /// pinned epoch while play() mutates the graph. Call before starting
  /// the scenario. See api/serve.h.
  ServeHandle& serve();

  /// The serving engine, or nullptr when serve() was never called.
  ServeHandle* serve_handle() { return serve_.get(); }

  /// Broadcast a scenario phase boundary (Observer::on_phase) to the
  /// pipeline. play() calls this before each phase executes; trace
  /// replay (replay/play.h) re-broadcasts the recorded markers so a
  /// replayed run drives its observers identically to the original.
  void notify_phase(const std::string& spec);

  // ---- introspection ------------------------------------------------

  const graph::Graph& graph() const { return g_; }
  const core::HealingState& state() const { return state_; }
  const core::HealingStrategy& healer() const { return *healer_; }
  /// Alive-node count when the engine was constructed (the `n` of the
  /// paper's bounds).
  std::size_t initial_size() const { return initial_size_; }
  /// Deletions so far (== the last RoundEvent's round).
  std::size_t rounds() const { return engine_.deletions; }
  /// False once any *performed* post-heal connectivity check failed
  /// (checks are lazy; see RoundEvent::connected()).
  bool stayed_connected() const { return engine_.stayed_connected; }

  // ---- connectivity / component structure ----------------------------

  /// Switch between plain and cross-checked tracker answers.
  /// DASH_VERIFY_CONNECTIVITY=1 keeps every engine in kVerify.
  void set_connectivity_mode(ConnectivityMode mode);
  ConnectivityMode connectivity_mode() const { return conn_mode_; }

  /// Number of components among alive nodes (0 when none are alive).
  /// O(alpha) amortized.
  std::size_t component_count() const;
  /// Size of the largest component (0 when no nodes are alive).
  std::size_t largest_component() const;
  /// (component count, largest size) in one ask; in kVerify one BFS
  /// labelling checks both.
  std::pair<std::size_t, std::size_t> component_snapshot() const;

  /// The engine's tracker, for instrumentation (rebuild counters).
  /// Never null.
  const graph::DynamicConnectivity* connectivity_tracker() const {
    return &tracker_;
  }

  /// Engine-maintained metrics refreshed from the healing state, with
  /// no observer contributions (use finish() for those).
  Metrics metrics() const;

 private:
  void attach(Observer* obs);
  void notify_round_begin(std::size_t round);
  void finish_round(RoundEvent& ev);
  /// The healing-forest certificate for one deletion: every survivor
  /// carries the same post-heal component id, i.e. one G'-tree
  /// reconnects them all without the deleted node.
  bool survivors_reconnected(const std::vector<graph::NodeId>& survivors)
      const;
  /// Current connectivity from the tracker (cross-checked in kVerify).
  bool current_connected() const;

  // Declaration order is construction order: the healing state and
  // the tracker are built from g_.
  graph::Graph g_;
  std::unique_ptr<core::HealingStrategy> healer_;
  core::HealingState state_;
  std::vector<std::unique_ptr<Observer>> owned_observers_;
  std::vector<Observer*> observers_;

  Metrics engine_;  ///< incrementally maintained fields only
  std::size_t initial_size_ = 0;
  /// Incremental component tracker, kept in sync with every engine
  /// mutation. Mutable: queries flush its lazy re-scan without changing
  /// observable state.
  mutable graph::DynamicConnectivity tracker_;
  ConnectivityMode conn_mode_;
  /// The concurrent read path (api/serve.h); null until serve().
  std::unique_ptr<ServeHandle> serve_;

  /// remove()'s per-deletion buffers, reused so that a deletion in
  /// steady state allocates only its HealAction's edge list.
  core::DeletionContext deletion_ctx_;
  std::vector<graph::NodeId> removed_neighbors_;
};

}  // namespace dash::api
