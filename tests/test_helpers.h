// test_helpers.h -- shared machinery for schedule-level tests: play an
// attack/heal schedule on the api::Network engine with the full
// invariant battery plugged in, failing loudly on any violation.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "api/api.h"
#include "core/batch.h"
#include "graph/generators.h"
#include "util/rng.h"

namespace dash::testing {

struct RunSpec {
  std::string attack = "neighborofmax";
  std::string healer = "dash";
  std::uint64_t seed = 12345;
  bool check_rem = false;   // DASH-only Lemma 4 bound
  bool track_stretch = false;
  std::size_t max_deletions = 0;  // 0: no cap
};

/// Plays `attacker`, seeded by the caller, on `net` until it stops, one
/// node is left, or `max_deletions` deletions (0: no cap): a targeted
/// phase over a BorrowedAttack, so the caller can read the attacker
/// afterwards and replay its exact deletions.
inline api::Metrics play_attack(api::Network& net,
                                attack::AttackStrategy& attacker,
                                std::size_t max_deletions = 0,
                                const api::PlayOptions& opts = {}) {
  const auto scenario = api::Scenario().targeted(
      [&attacker](std::uint64_t) {
        return std::make_unique<attack::BorrowedAttack>(attacker);
      },
      attacker.name(), max_deletions);
  return net.play(scenario, 0, opts);
}

/// Play a full schedule on `g` with the invariant observer attached;
/// EXPECT no violation and that the network stayed connected.
inline api::Metrics run_checked(graph::Graph g, const RunSpec& spec) {
  dash::util::Rng rng(spec.seed);
  api::Network net(std::move(g), core::make_strategy(spec.healer), rng);

  api::InvariantOptions inv_opts;
  inv_opts.check_rem_bound = spec.check_rem;
  inv_opts.check_delta_bound = (spec.healer == "dash");  // Theorem 1 is DASH's
  net.add_observer(std::make_unique<api::InvariantObserver>(inv_opts));
  if (spec.track_stretch) {
    net.add_observer(std::make_unique<api::StretchObserver>());
  }

  auto attacker = attack::make_attack(spec.attack, spec.seed);
  const api::Metrics result = play_attack(net, *attacker, spec.max_deletions);

  EXPECT_TRUE(result.violation.empty()) << result.violation;
  EXPECT_TRUE(result.stayed_connected)
      << spec.healer << " lost connectivity under " << spec.attack;
  return result;
}

/// Every registered healer, with a parameter where the spec needs one.
/// (serve_snapshot_property_test checks that it covers the registry.)
inline const std::vector<std::string>& every_healer() {
  static const std::vector<std::string> healers = {
      "dash", "sdash", "graph", "binarytree", "line", "none", "capped:3"};
  return healers;
}

/// One small scenario per phase type, for BA graphs of a few dozen
/// nodes. `trace:` is left out: it replays a recorded file.
inline constexpr const char* kEveryPhaseType[] = {
    "strike:randomx30",                            // strike
    "batch:4,randomx4;batch:3,hubsx2",             // batch
    "churn:0.4,0.4x80",                            // churn
    "targeted:maxnodex30",                         // targeted
    "until:12,random",                             // until
    "repeat:3{strike:randomx5;churn:0.3,0.2x10}",  // repeat
    "floor:16;targeted:maxnode",                   // floor
    "untilfrac:0.5,neighborofmax",                 // untilfrac
    "join:2x10;strike:randomx20",                  // join
    "ramp:0.1,0.5,0.5,0.1x60",                     // ramp
    "mix:2{strike:random},1{join:2}x40",           // mix
};

/// Test-name suffix for a scenario-spec parameter.
inline std::string spec_test_name(
    const ::testing::TestParamInfo<const char*>& info) {
  std::string name = info.param;
  for (char& c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
  }
  return name;
}

/// The healing state's checkpoint bytes.
inline std::string save_bytes(const core::HealingState& st) {
  std::ostringstream out;
  st.save(out);
  return out.str();
}

/// One engine event and the healing state's bytes after it.
struct StateEvent {
  enum Kind { kDelete, kBatch, kJoin } kind = kDelete;
  std::vector<graph::NodeId> nodes;  ///< victim, batch, or join attach list
  graph::NodeId joined = graph::kInvalidNode;
  std::string state;
};

/// Records every event a Network plays, with the state's save bytes
/// after it, so a test can replay the events through the core protocol
/// calls and compare the two runs event by event.
class StateEventRecorder final : public api::Observer {
 public:
  explicit StateEventRecorder(std::vector<StateEvent>& out) : out_(out) {}
  std::string name() const override { return "state-event-recorder"; }
  void on_round_end(const api::Network& net,
                    const api::RoundEvent& ev) override {
    StateEvent e;
    e.kind = ev.batch != nullptr ? StateEvent::kBatch : StateEvent::kDelete;
    e.nodes = ev.batch != nullptr ? *ev.batch
                                  : std::vector<graph::NodeId>{ev.victim};
    e.state = save_bytes(net.state());
    out_.push_back(std::move(e));
  }
  void on_join(const api::Network& net, const api::JoinEvent& ev) override {
    StateEvent e;
    e.kind = StateEvent::kJoin;
    e.nodes.assign(ev.attached_to.begin(), ev.attached_to.end());
    e.joined = ev.joined;
    e.state = save_bytes(net.state());
    out_.push_back(std::move(e));
  }

 private:
  std::vector<StateEvent>& out_;
};

/// The seeds dash_heal_batch hands to propagate_min_id for one cluster,
/// in the order it places them before sorting by delta, read from the
/// state `pre` it heals: one representative per component id among the
/// survivors (ids of the cluster's own members excluded, lowest initial
/// id wins), then the forest neighbours, keeping the first candidate
/// per G'-tree.
inline std::vector<graph::NodeId> cluster_seeds(
    const graph::Graph& g, const core::HealingState& pre,
    const core::ClusterContext& cluster) {
  std::vector<graph::NodeId> candidates;
  for (graph::NodeId u : cluster.survivor_neighbors) {
    const std::uint64_t cid = pre.component_id(u);
    const auto& own = cluster.member_component_ids;
    if (std::find(own.begin(), own.end(), cid) != own.end()) continue;
    const auto rep = std::find_if(
        candidates.begin(), candidates.end(),
        [&](graph::NodeId r) { return pre.component_id(r) == cid; });
    if (rep == candidates.end()) {
      candidates.push_back(u);
    } else if (pre.initial_id(u) < pre.initial_id(*rep)) {
      *rep = u;
    }
  }
  candidates.insert(candidates.end(), cluster.forest_neighbors.begin(),
                    cluster.forest_neighbors.end());
  std::vector<graph::NodeId> seeds;
  std::vector<char> seen(g.num_nodes(), 0);
  for (graph::NodeId c : candidates) {
    if (seen[c]) continue;
    for (graph::NodeId x : pre.healing_component(g, c)) seen[x] = 1;
    seeds.push_back(c);
  }
  return seeds;
}

}  // namespace dash::testing
