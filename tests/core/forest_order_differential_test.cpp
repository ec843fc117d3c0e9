// forest_order_differential_test.cpp -- the order of every E' list
// against the vector-of-vectors layout HealingState used before its
// block slab, kept here as the reference.
//
// The order is observable: it decides checkpoint and trace bytes and
// which entry the forest walk reports first. The reference holds one
// std::vector<NodeId> per id, with push_back on add, erase-remove on
// detach and clear on delete, and it is driven by the edges each
// healer adds, in the order it adds them (mirrored per healer below).
//
// Each scenario is played through api::Network, which records every
// event with the state's save bytes after it. The events are then
// replayed through the core protocol calls while the reference
// follows. After every event, each node's forest_neighbors (order
// included), num_healing_edges, the forest lines of the save bytes and
// the whole save bytes must match, and load(save()) must round-trip.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "api/api.h"
#include "core/batch.h"
#include "core/factory.h"
#include "graph/generators.h"
#include "test_helpers.h"

namespace dash::core {
namespace {

using dash::testing::save_bytes;
using dash::testing::StateEvent;

constexpr std::size_t kNodes = 64;
constexpr std::uint64_t kGraphSeed = 0xE0D3u;
constexpr std::uint64_t kStateSeed = 5;
constexpr std::uint64_t kPlaySeed = 13;

constexpr const char* kHealers[] = {"dash", "sdash", "graph", "line",
                                    "binarytree"};

using Edges = std::vector<std::pair<NodeId, NodeId>>;

/// E' as it was stored before the slab: one vector per id.
struct ReferenceForest {
  std::vector<std::vector<NodeId>> adj;
  std::size_t edges = 0;

  void add(NodeId a, NodeId b) {
    if (std::find(adj[a].begin(), adj[a].end(), b) != adj[a].end()) return;
    adj[a].push_back(b);
    adj[b].push_back(a);
    ++edges;
  }
  /// Detach every node of `gone` (one deletion or one batch).
  void detach(const std::vector<NodeId>& gone) {
    std::vector<char> in(adj.size(), 0);
    for (NodeId v : gone) in[v] = 1;
    for (NodeId v : gone) {
      for (NodeId u : adj[v]) {
        if (!in[u]) {
          adj[u].erase(std::remove(adj[u].begin(), adj[u].end(), v),
                       adj[u].end());
          --edges;
        } else if (v < u) {
          --edges;
        }
      }
    }
    for (NodeId v : gone) adj[v].clear();
  }
};

/// The shapes healers reconnect, as (parent, child) pairs in the order
/// the healers add them.
Edges binary_tree(const std::vector<NodeId>& slots) {
  Edges e;
  for (std::size_t i = 1; i < slots.size(); ++i) {
    e.emplace_back(slots[(i - 1) / 2], slots[i]);
  }
  return e;
}
Edges star(const std::vector<NodeId>& slots) {
  Edges e;
  for (std::size_t i = 1; i < slots.size(); ++i) {
    e.emplace_back(slots[0], slots[i]);
  }
  return e;
}
Edges path(const std::vector<NodeId>& slots) {
  Edges e;
  for (std::size_t i = 1; i < slots.size(); ++i) {
    e.emplace_back(slots[i - 1], slots[i]);
  }
  return e;
}

/// The E' edges `healer` adds for one deletion, read from the state
/// after begin_deletion; SDASH's choice of shape comes from its action.
Edges heal_edges(const std::string& healer, const HealingState& st,
                 const DeletionContext& ctx, bool used_surrogate) {
  if (healer == "graph") {
    std::vector<NodeId> nodes = ctx.neighbors_g;
    std::sort(nodes.begin(), nodes.end());
    return binary_tree(nodes);
  }
  std::vector<NodeId> rt = st.reconnection_set(ctx);
  if (healer == "dash") return binary_tree(rt);
  if (healer == "sdash") return used_surrogate ? star(rt) : binary_tree(rt);
  std::sort(rt.begin(), rt.end(), [&st](NodeId a, NodeId b) {
    return st.initial_id(a) < st.initial_id(b);
  });
  return healer == "line" ? path(rt) : binary_tree(rt);
}

/// The E' edges dash_heal_batch adds for one cluster: its seeds in a
/// delta-ordered binary tree.
Edges cluster_edges(const graph::Graph& g, const HealingState& st,
                    const ClusterContext& cluster) {
  std::vector<NodeId> rt = dash::testing::cluster_seeds(g, st, cluster);
  st.sort_by_delta(rt);
  return binary_tree(rt);
}

/// The forest lines save() writes, rendered from the reference.
std::string reference_forest_lines(const ReferenceForest& ref) {
  std::ostringstream out;
  for (const auto& list : ref.adj) {
    out << list.size();
    for (NodeId u : list) out << ' ' << u;
    out << '\n';
  }
  return out.str();
}

/// The last `lines` lines of `text`.
std::string tail_lines(const std::string& text, std::size_t lines) {
  std::size_t at = text.size();
  for (std::size_t i = 0; i <= lines && at != 0; ++i) {
    at = text.rfind('\n', at - 1);
    if (at == std::string::npos) return text;
  }
  return text.substr(at + 1);
}

void expect_matches_reference(const HealingState& st,
                              const ReferenceForest& ref,
                              const std::string& recorded,
                              const std::string& what) {
  ASSERT_EQ(st.num_nodes(), ref.adj.size()) << what;
  for (NodeId v = 0; v < st.num_nodes(); ++v) {
    const auto list = st.forest_neighbors(v);
    ASSERT_EQ(std::vector<NodeId>(list.begin(), list.end()), ref.adj[v])
        << what << ": E' list of node " << v;
  }
  ASSERT_EQ(st.num_healing_edges(), ref.edges) << what;
  const std::string bytes = save_bytes(st);
  ASSERT_EQ(tail_lines(bytes, st.num_nodes()), reference_forest_lines(ref))
      << what;
  ASSERT_EQ(bytes, recorded) << what << ": differs from the Network run";
  std::istringstream in(bytes);
  const HealingState loaded = HealingState::load(in);
  ASSERT_TRUE(loaded == st) << what << ": load(save()) differs";
  ASSERT_EQ(save_bytes(loaded), bytes) << what;
}

graph::Graph initial_graph() {
  dash::util::Rng rng(kGraphSeed);
  return graph::barabasi_albert(kNodes, 2, rng);
}

void replay_with_reference(const std::string& healer,
                           const std::vector<StateEvent>& events,
                           const std::string& what) {
  graph::Graph g = initial_graph();
  dash::util::Rng state_rng(kStateSeed);
  HealingState st(g, state_rng);
  ReferenceForest ref;
  ref.adj.resize(g.num_nodes());
  const auto strategy = make_strategy(healer);

  for (std::size_t i = 0; i < events.size(); ++i) {
    const StateEvent& e = events[i];
    if (e.kind == StateEvent::kJoin) {
      ASSERT_EQ(st.join_node(g, e.nodes), e.joined) << what << " event " << i;
      ref.adj.emplace_back();
    } else if (e.kind == StateEvent::kDelete) {
      const DeletionContext ctx = st.begin_deletion(g, e.nodes.front());
      ref.detach(e.nodes);
      g.delete_node(e.nodes.front());
      const HealingState pre = st;
      const HealAction action = strategy->heal(g, st, ctx);
      for (const auto& [a, b] :
           heal_edges(healer, pre, ctx, action.used_surrogate)) {
        ref.add(a, b);
      }
    } else {
      const BatchDeletionContext batch = begin_batch_deletion(st, g, e.nodes);
      ref.detach(e.nodes);
      delete_batch(g, e.nodes);
      for (const ClusterContext& cluster : batch.clusters) {
        BatchDeletionContext one;
        one.clusters = {cluster};
        one.total_deleted = batch.total_deleted;
        const Edges edges = cluster_edges(g, st, cluster);
        dash_heal_batch(g, st, one);
        for (const auto& [a, b] : edges) ref.add(a, b);
      }
    }
    expect_matches_reference(st, ref, e.state,
                             what + ", event " + std::to_string(i));
    if (::testing::Test::HasFatalFailure()) return;
  }
}

class ForestOrderDifferential : public ::testing::TestWithParam<const char*> {
};

TEST_P(ForestOrderDifferential, ListsMatchTheVectorReference) {
  const std::string spec = GetParam();
  for (const std::string healer : kHealers) {
    const std::string what = spec + " / " + healer;
    std::vector<StateEvent> events;
    dash::testing::StateEventRecorder recorder(events);
    api::Network net(initial_graph(), healer, kStateSeed);
    net.add_observer(&recorder);
    net.play(api::Scenario::parse(spec), kPlaySeed);
    ASSERT_FALSE(events.empty()) << what;
    replay_with_reference(healer, events, what);
    if (HasFatalFailure()) return;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Schedules, ForestOrderDifferential,
    ::testing::Values("strike:randomx40", "targeted:neighborofmax",
                      "batch:4,randomx5;batch:3,hubsx3",
                      "churn:0.5,0.5x160"),
    dash::testing::spec_test_name);

}  // namespace
}  // namespace dash::core
