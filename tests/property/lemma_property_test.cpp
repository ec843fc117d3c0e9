// lemma_property_test.cpp -- direct checks of the paper's lemmas as
// executable properties on randomized schedules.
#include <gtest/gtest.h>

#include <cmath>

#include "../forest_reference.h"
#include "analysis/invariants.h"
#include "attack/factory.h"
#include "core/factory.h"
#include "core/healers.h"
#include "core/healing_state.h"
#include "graph/generators.h"
#include "graph/traversal.h"
#include "util/rng.h"

namespace dash {
namespace {

using core::DeletionContext;
using core::HealingState;
using dash::util::Rng;
using graph::Graph;
using graph::NodeId;

/// Step one deletion with explicit access to pre/post state.
struct Stepper {
  Graph g;
  HealingState st;
  std::unique_ptr<core::HealingStrategy> healer;

  Stepper(Graph graph, std::uint64_t seed, const std::string& strategy)
      : g(std::move(graph)),
        st([this, seed] {
          Rng rng(seed);
          return HealingState(g, rng);
        }()),
        healer(core::make_strategy(strategy)) {}

  core::HealAction kill(NodeId v) {
    const DeletionContext ctx = st.begin_deletion(g, v);
    g.delete_node(v);
    return healer->heal(g, st, ctx);
  }
};

// ---- Lemma 1: E' forms a forest (DASH and component-aware healers) --

TEST(Lemma1, ForestMaintainedUnderRandomSchedules) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(seed);
    Stepper s(graph::barabasi_albert(64, 2, rng), seed, "dash");
    Rng pick(seed * 7);
    while (s.g.num_alive() > 1) {
      const auto alive = s.g.alive_nodes();
      s.kill(alive[static_cast<std::size_t>(pick.below(alive.size()))]);
      ASSERT_TRUE(dash::testing::healing_graph_is_forest(s.g, s.st));
    }
  }
}

// ---- Lemma 2: rem(v) non-decreasing across other nodes' deletions ---

TEST(Lemma2, RemNonDecreasingForSurvivors) {
  Rng rng(3);
  Stepper s(graph::barabasi_albert(48, 2, rng), 3, "dash");
  Rng pick(11);
  for (int round = 0; round < 40 && s.g.num_alive() > 2; ++round) {
    // Snapshot rem for a few alive nodes.
    const auto alive = s.g.alive_nodes();
    std::vector<std::pair<NodeId, std::uint64_t>> before;
    for (std::size_t i = 0; i < alive.size(); i += 5) {
      before.emplace_back(alive[i], dash::testing::rem(s.g, s.st, alive[i]));
    }
    const NodeId victim =
        alive[static_cast<std::size_t>(pick.below(alive.size()))];
    s.kill(victim);
    for (auto [v, rem_before] : before) {
      if (!s.g.alive(v)) continue;
      EXPECT_GE(dash::testing::rem(s.g, s.st, v), rem_before) << "node " << v;
    }
  }
}

// ---- Lemma 3: every neighbor-side subtree weighs at least rem(v) ----

TEST(Lemma3, SubtreeWeightsDominateRem) {
  Rng rng(5);
  Stepper s(graph::barabasi_albert(48, 2, rng), 5, "dash");
  Rng pick(13);
  for (int round = 0; round < 30 && s.g.num_alive() > 2; ++round) {
    const auto alive = s.g.alive_nodes();
    s.kill(alive[static_cast<std::size_t>(pick.below(alive.size()))]);
    // W(T(v,q)) >= rem(v): removing the edge towards q leaves v's side
    // with weight >= rem(v). Verify via rem computed on the neighbor:
    // W(T(v,q)) = W(T_q) - W(T(q,v) subtree containing ... ) -- instead
    // check the direct definitional inequality using rem's parts.
    for (NodeId v : s.g.alive_nodes()) {
      const std::uint64_t rem_v = dash::testing::rem(s.g, s.st, v);
      for (NodeId q : s.st.forest_neighbors(v)) {
        // Weight of v's side when edge {v,q} is cut: total tree weight
        // minus q's side. Compute by BFS over forest from v avoiding q.
        std::uint64_t w_v_side = 0;
        std::vector<char> visited(s.g.num_nodes(), 0);
        visited[q] = 1;
        std::vector<NodeId> stack{v};
        visited[v] = 1;
        while (!stack.empty()) {
          const NodeId x = stack.back();
          stack.pop_back();
          w_v_side += s.st.weight(x);
          for (NodeId y : s.st.forest_neighbors(x)) {
            if (!visited[y]) {
              visited[y] = 1;
              stack.push_back(y);
            }
          }
        }
        ASSERT_GE(w_v_side, rem_v) << "v=" << v << " q=" << q;
      }
    }
  }
}

// ---- Lemma 4: rem(v) >= 2^{delta(v)/2} --------------------------------

TEST(Lemma4, PotentialBoundAcrossFamiliesAndAttacks) {
  struct Case {
    const char* attack;
    std::uint64_t seed;
  };
  for (const Case c : {Case{"neighborofmax", 1}, Case{"maxnode", 2},
                       Case{"maxdelta", 3}, Case{"random", 4}}) {
    Rng rng(c.seed);
    Graph g = graph::barabasi_albert(64, 2, rng);
    HealingState st(g, rng);
    auto attacker = attack::make_attack(c.attack, c.seed);
    core::DashStrategy dash;
    analysis::HealingForestWalk walk;
    while (g.num_alive() > 1) {
      const NodeId v = attacker->select(g, st);
      if (v == graph::kInvalidNode) break;
      const DeletionContext ctx = st.begin_deletion(g, v);
      g.delete_node(v);
      dash.heal(g, st, ctx);
      const auto check = walk.check(g, st, {.check_rem_bound = true});
      ASSERT_TRUE(check.ok) << c.attack << ": " << check.violation;
    }
  }
}

// ---- Lemma 5: rem(v) <= n (weight conservation) ----------------------

TEST(Lemma5, RemNeverExceedsTotalWeight) {
  Rng rng(7);
  Stepper s(graph::barabasi_albert(56, 2, rng), 7, "dash");
  Rng pick(17);
  const std::uint64_t n = 56;
  while (s.g.num_alive() > 1) {
    const auto alive = s.g.alive_nodes();
    s.kill(alive[static_cast<std::size_t>(pick.below(alive.size()))]);
    for (NodeId v : s.g.alive_nodes()) {
      ASSERT_LE(dash::testing::rem(s.g, s.st, v), n);
    }
    ASSERT_LE(s.st.total_alive_weight(s.g), n);
  }
}

// ---- Lemma 10: tree deletion degree-sum identity ---------------------

TEST(Lemma10, AcyclicHealingGainsDMinus2OnTrees) {
  // On a tree, deleting a degree-d node (d >= 1) and reconnecting its
  // neighbors acyclically adds exactly d-2 to the neighbors' degree sum
  // (for d >= 2; leaves cost 1 with no compensation).
  Rng rng(9);
  Graph g = graph::random_tree(60, rng);
  HealingState st(g, rng);
  core::DashStrategy dash;
  Rng pick(19);
  for (int round = 0; round < 40 && g.num_alive() > 2; ++round) {
    const auto alive = g.alive_nodes();
    const NodeId v =
        alive[static_cast<std::size_t>(pick.below(alive.size()))];
    const std::vector<NodeId> nbrs(g.neighbors(v).begin(),
                                   g.neighbors(v).end());
    const std::size_t d = nbrs.size();
    std::size_t deg_before = 0;
    for (NodeId u : nbrs) deg_before += g.degree(u);

    const DeletionContext ctx = st.begin_deletion(g, v);
    g.delete_node(v);
    dash.heal(g, st, ctx);

    std::size_t deg_after = 0;
    for (NodeId u : nbrs) deg_after += g.degree(u);
    // Starting from a tree and healing acyclically keeps G a tree, so
    // the identity is exact for d >= 1:
    //   sum gains = 2(d-1) - d = d - 2   (d >= 1; for d=1 it is -1).
    EXPECT_EQ(static_cast<long>(deg_after) - static_cast<long>(deg_before),
              static_cast<long>(2 * (d - 1)) - static_cast<long>(d))
        << "degree-" << d << " deletion";
    // Tree-ness preserved.
    ASSERT_EQ(g.num_edges(), g.num_alive() - 1);
    ASSERT_TRUE(graph::is_connected(g));
  }
}

// ---- Lemma 11: deleting a degree>=3 node bumps someone ---------------

TEST(Lemma11, SomeNeighborGainsDegree) {
  Rng rng(11);
  Graph g = graph::random_tree(50, rng);
  HealingState st(g, rng);
  core::DashStrategy dash;
  for (int round = 0; round < 30 && g.num_alive() > 4; ++round) {
    // Find an alive node of degree >= 3.
    NodeId victim = graph::kInvalidNode;
    for (NodeId v : g.alive_nodes()) {
      if (g.degree(v) >= 3) {
        victim = v;
        break;
      }
    }
    if (victim == graph::kInvalidNode) break;
    const std::vector<NodeId> nbrs(g.neighbors(victim).begin(),
                                   g.neighbors(victim).end());
    std::vector<std::int32_t> delta_before;
    for (NodeId u : nbrs) delta_before.push_back(st.delta(u));

    const DeletionContext ctx = st.begin_deletion(g, victim);
    g.delete_node(victim);
    dash.heal(g, st, ctx);

    bool someone_gained = false;
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      someone_gained |= st.delta(nbrs[i]) > delta_before[i];
    }
    EXPECT_TRUE(someone_gained);
  }
}

}  // namespace
}  // namespace dash
