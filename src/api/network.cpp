#include "api/network.h"

#include <algorithm>
#include <cstdlib>
#include <utility>

#include "api/serve.h"
#include "core/batch.h"
#include "core/factory.h"
#include "graph/traversal.h"
#include "util/check.h"

namespace dash::api {

using core::HealAction;
using core::HealingState;
using graph::Graph;
using graph::NodeId;

namespace {

/// DASH_VERIFY_CONNECTIVITY=1 flips every engine into kVerify: each
/// tracker answer is cross-checked against the BFS scan.
bool env_verify_connectivity() {
  static const bool on = [] {
    const char* v = std::getenv("DASH_VERIFY_CONNECTIVITY");
    return v != nullptr && v[0] != '\0' && v[0] != '0';
  }();
  return on;
}

ConnectivityMode default_mode() {
  return env_verify_connectivity() ? ConnectivityMode::kVerify
                                   : ConnectivityMode::kTracker;
}

HealingState seeded_state(const Graph& g, std::uint64_t seed) {
  dash::util::Rng rng(seed);
  return HealingState(g, rng);
}

}  // namespace

bool RoundEvent::connected() const {
  if (!connected_.has_value()) {
    // Events detached from an engine (unit-test fixtures) default to
    // connected; engine-emitted events carry the engine's tracker.
    connected_ = tracker_ == nullptr || tracker_->connected();
    if (verify_) {
      DASH_CHECK_MSG(*connected_ == graph::is_connected(*graph_),
                     "DynamicConnectivity disagrees with the BFS scan");
    }
  }
  return *connected_;
}

Network::Network(Graph g, std::unique_ptr<core::HealingStrategy> healer,
                 dash::util::Rng& rng)
    : g_(std::move(g)),
      healer_(std::move(healer)),
      state_(g_, rng),
      initial_size_(g_.num_alive()),
      tracker_(g_),
      conn_mode_(default_mode()) {
  DASH_CHECK_MSG(healer_ != nullptr, "Network needs a healing strategy");
}

Network::Network(Graph g, const std::string& healer_spec,
                 std::uint64_t seed)
    : g_(std::move(g)),
      healer_(core::make_strategy(healer_spec)),
      state_(seeded_state(g_, seed)),
      initial_size_(g_.num_alive()),
      tracker_(g_),
      conn_mode_(default_mode()) {}

Network::Network(Graph g, std::unique_ptr<core::HealingStrategy> healer,
                 HealingState state)
    : g_(std::move(g)),
      healer_(std::move(healer)),
      state_(std::move(state)),
      initial_size_(g_.num_alive()),
      tracker_(g_),
      conn_mode_(default_mode()) {
  DASH_CHECK_MSG(healer_ != nullptr, "Network needs a healing strategy");
  DASH_CHECK_MSG(state_.num_nodes() == g_.num_nodes(),
                 "checkpointed healing state does not match the graph");
}

Network::~Network() = default;

ServeHandle& Network::serve() {
  if (!serve_) {
    serve_.reset(new ServeHandle(*this));
    add_observer(&serve_->publisher_);
  }
  return *serve_;
}

void Network::set_connectivity_mode(ConnectivityMode mode) {
  // The env debug flag outranks programmatic requests, so a
  // DASH_VERIFY_CONNECTIVITY=1 run cross-checks even suites that
  // configure their own modes (answers are identical either way).
  conn_mode_ = env_verify_connectivity() ? ConnectivityMode::kVerify : mode;
}

void Network::attach(Observer* obs) {
  DASH_CHECK_MSG(obs != nullptr, "null observer");
  observers_.push_back(obs);
  obs->on_attach(*this);
}

void Network::add_observer(Observer* obs) { attach(obs); }

Observer& Network::add_observer(std::unique_ptr<Observer> obs) {
  Observer& ref = *obs;
  owned_observers_.push_back(std::move(obs));
  attach(&ref);
  return ref;
}

Observer* Network::find_observer(const std::string& name) const {
  for (Observer* obs : observers_) {
    if (obs->name() == name) return obs;
  }
  return nullptr;
}

void Network::notify_round_begin(std::size_t round) {
  for (Observer* obs : observers_) obs->on_round_begin(*this, round);
}

void Network::notify_phase(const std::string& spec) {
  for (Observer* obs : observers_) obs->on_phase(*this, spec);
}

void Network::finish_round(RoundEvent& ev) {
  // Events are engine-constructed for exactly one round; a verdict
  // cached this early would be another round's answer leaking through.
  DASH_CHECK_MSG(!ev.connectivity_checked(),
                 "stale RoundEvent::connected cache leaked across rounds");
  ev.graph_ = &g_;
  ev.tracker_ = &tracker_;
  ev.verify_ = conn_mode_ == ConnectivityMode::kVerify;
  if (ev.ctx != nullptr) {
    for (Observer* obs : observers_) obs->on_heal(*this, ev);
  }
  for (Observer* obs : observers_) obs->on_round_end(*this, ev);
  // Connectivity is pay-per-ask: fold the scan into stayed_connected
  // only if this round's pipeline actually performed one.
  if (ev.connectivity_checked() && !ev.connected()) {
    engine_.stayed_connected = false;
  }
}

HealAction Network::remove(NodeId v) {
  DASH_CHECK_MSG(g_.alive(v), "removing a dead node");
  notify_round_begin(engine_.deletions + 1);

  const core::DeletionContext& ctx = deletion_ctx_;
  state_.begin_deletion(g_, v, deletion_ctx_);
  g_.delete_node(v, removed_neighbors_);
  DASH_CHECK(removed_neighbors_ == ctx.neighbors_g);

  HealAction action = healer_->heal(g_, state_, ctx);

  for (const auto& [a, b] : action.new_graph_edges) {
    tracker_.edge_added(a, b);
  }
  const bool may_split = ctx.neighbors_g.size() >= 2 &&
                         (!healer_->reconnects_survivors() ||
                          !survivors_reconnected(ctx.neighbors_g));
  tracker_.node_removed(v, ctx.neighbors_g, may_split);

  ++engine_.deletions;
  engine_.edges_added += action.new_graph_edges.size();
  if (action.used_surrogate) ++engine_.surrogate_heals;

  RoundEvent ev;
  ev.round = engine_.deletions;
  ev.victim = v;
  ev.ctx = &ctx;
  ev.action = &action;
  ev.edges_added = action.new_graph_edges.size();
  finish_round(ev);
  return action;
}

std::vector<HealAction> Network::remove_batch(
    const std::vector<NodeId>& batch) {
  DASH_CHECK_MSG(!batch.empty(), "empty deletion batch");
  // Checked before begin_batch_deletion, which indexes per-id arrays by
  // every member.
  for (NodeId v : batch) {
    DASH_CHECK_MSG(g_.alive(v), "batch member is not an alive node");
  }
  std::vector<NodeId> distinct = batch;
  std::sort(distinct.begin(), distinct.end());
  DASH_CHECK_MSG(
      std::adjacent_find(distinct.begin(), distinct.end()) == distinct.end(),
      "batch member repeats");
  // Round ids are cumulative deletion counts; begin and end of one
  // round must agree, so the batch's id is known up front.
  notify_round_begin(engine_.deletions + batch.size());

  const core::BatchDeletionContext ctx =
      core::begin_batch_deletion(state_, g_, batch);
  core::delete_batch(g_, batch);

  const auto actions = core::dash_heal_batch(g_, state_, ctx);

  for (const auto& action : actions) {
    for (const auto& [a, b] : action.new_graph_edges) {
      tracker_.edge_added(a, b);
    }
  }
  // Seeds for the lazy re-scan: every remnant of the touched
  // components holds a surviving neighbor of some cluster.
  std::vector<NodeId> survivors;
  for (const auto& cluster : ctx.clusters) {
    survivors.insert(survivors.end(), cluster.survivor_neighbors.begin(),
                     cluster.survivor_neighbors.end());
  }
  std::sort(survivors.begin(), survivors.end());
  survivors.erase(std::unique(survivors.begin(), survivors.end()),
                  survivors.end());
  // Batch rounds get the same per-cluster certificate single deletions
  // do: when every survivor still shares one healing-forest component,
  // the round cannot have split and the tracker skips the lazy re-scan
  // entirely.
  tracker_.batch_removed(batch, survivors, !survivors_reconnected(survivors));

  engine_.deletions += batch.size();
  std::size_t round_edges = 0;
  for (const auto& action : actions) {
    round_edges += action.new_graph_edges.size();
    if (action.used_surrogate) ++engine_.surrogate_heals;
  }
  engine_.edges_added += round_edges;

  RoundEvent ev;
  ev.round = engine_.deletions;
  ev.deletions_in_round = batch.size();
  ev.victim = batch.front();
  ev.batch = &batch;
  ev.edges_added = round_edges;
  finish_round(ev);
  return actions;
}

NodeId Network::join(const std::vector<NodeId>& attach_to) {
  const NodeId joined = state_.join_node(g_, attach_to);
  tracker_.node_added(joined);
  for (NodeId t : attach_to) tracker_.edge_added(joined, t);
  ++engine_.joins;
  if (attach_to.empty() && g_.num_alive() > 1) {
    // An unattached newcomer is its own component.
    engine_.stayed_connected = false;
  }
  const JoinEvent ev{joined, attach_to};
  for (Observer* obs : observers_) obs->on_join(*this, ev);
  return joined;
}

bool Network::survivors_reconnected(
    const std::vector<NodeId>& survivors) const {
  if (survivors.size() < 2) return true;
  // One shared post-heal component id places every survivor in one
  // healing-forest component, whose edges all exist in G among alive
  // nodes (E' subset of E) -- so the survivors are mutually reachable
  // without the deleted node. This trusts exactly the id and E' subset
  // of E invariants the InvariantObserver battery verifies (its
  // analysis::HealingForestWalk); kVerify cross-checks the conclusion
  // against the scan.
  const std::uint64_t id = state_.component_id(survivors.front());
  for (std::size_t i = 1; i < survivors.size(); ++i) {
    if (state_.component_id(survivors[i]) != id) return false;
  }
  return true;
}

bool Network::current_connected() const {
  const bool fast = tracker_.connected();
  if (conn_mode_ == ConnectivityMode::kVerify) {
    DASH_CHECK_MSG(fast == graph::is_connected(g_),
                   "DynamicConnectivity disagrees with the BFS scan");
  }
  return fast;
}

std::pair<std::size_t, std::size_t> Network::component_snapshot() const {
  const std::pair<std::size_t, std::size_t> fast{
      tracker_.component_count(), tracker_.largest_component()};
  if (conn_mode_ == ConnectivityMode::kVerify) {
    const graph::Components comps = graph::connected_components(g_);
    DASH_CHECK_MSG(fast.first == comps.count() &&
                       fast.second == comps.largest(),
                   "DynamicConnectivity component structure disagrees "
                   "with the BFS labelling");
  }
  return fast;
}

std::size_t Network::component_count() const {
  return component_snapshot().first;
}

std::size_t Network::largest_component() const {
  return component_snapshot().second;
}

Metrics Network::metrics() const {
  Metrics m = engine_;
  m.max_delta = state_.max_delta_ever();
  m.max_id_changes = state_.max_id_changes();
  m.max_messages = state_.max_messages();
  m.max_messages_sent = state_.max_messages_sent();
  const auto [components, largest] = component_snapshot();
  m.components = components;
  m.largest_component = largest;
  return m;
}

Metrics Network::finish() {
  // Rounds nobody inspected skipped their connectivity check; settle
  // the account with one final check of the *current* network. Note
  // this is a present-state check only: a run whose rounds all went
  // unobserved can have disconnected mid-way and been ground down to a
  // trivially connected remnant without stayed_connected noticing --
  // callers who care about transient disconnection (NoHeal studies)
  // must ask per round, via a play stop condition or an observer that
  // reads RoundEvent::connected().
  if (engine_.stayed_connected && g_.num_alive() > 1 &&
      !current_connected()) {
    engine_.stayed_connected = false;
  }
  Metrics m = metrics();
  for (Observer* obs : observers_) obs->on_finish(*this, m);
  return m;
}

}  // namespace dash::api
