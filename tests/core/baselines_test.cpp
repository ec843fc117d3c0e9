#include <gtest/gtest.h>

#include <cmath>

#include "../forest_reference.h"
#include "../test_helpers.h"
#include "core/healers.h"
#include "graph/generators.h"
#include "graph/traversal.h"
#include "util/rng.h"

namespace dash::core {
namespace {

using dash::testing::RunSpec;
using dash::testing::run_checked;
using dash::util::Rng;

HealAction delete_and_heal(Graph& g, HealingState& st,
                           HealingStrategy& strat, NodeId v) {
  const DeletionContext ctx = st.begin_deletion(g, v);
  g.delete_node(v);
  return strat.heal(g, st, ctx);
}

// ---- GraphHeal ------------------------------------------------------

TEST(GraphHeal, ReconnectsAllNeighbors) {
  Rng rng(1);
  Graph g = graph::star_graph(6);
  HealingState st(g, rng);
  GraphHealStrategy heal;
  const HealAction a = delete_and_heal(g, st, heal, 0);
  EXPECT_EQ(a.reconnection_set_size, 5u);
  EXPECT_EQ(a.new_graph_edges.size(), 4u);
  EXPECT_TRUE(graph::is_connected(g));
}

TEST(GraphHeal, DoesNotTrackComponentsAndMayCycle) {
  // Two deletions that force redundant edges: cycle in E' allowed.
  Rng rng(2);
  Graph g = graph::cycle_graph(6);
  HealingState st(g, rng);
  GraphHealStrategy heal;
  delete_and_heal(g, st, heal, 0);
  delete_and_heal(g, st, heal, 3);
  EXPECT_TRUE(graph::is_connected(g));
  EXPECT_FALSE(heal.maintains_forest());
}

TEST(GraphHeal, FullScheduleStaysConnected) {
  Rng rng(3);
  Graph g = graph::barabasi_albert(96, 2, rng);
  // No invariant observer: the forest check is not applicable here.
  api::Network net(std::move(g), make_strategy("graph"), rng);
  auto attacker = attack::make_attack("neighborofmax", 4);
  const auto result = dash::testing::play_attack(net, *attacker);
  EXPECT_TRUE(result.stayed_connected);
  EXPECT_EQ(result.deletions, 95u);
}

// ---- BinaryTreeHeal -------------------------------------------------

TEST(BinaryTreeHeal, FullScheduleInvariants) {
  Rng rng(4);
  run_checked(graph::barabasi_albert(96, 2, rng),
              {.attack = "neighborofmax", .healer = "binarytree",
               .seed = 5});
}

TEST(BinaryTreeHeal, UsesComponentTracking) {
  // Deleting the center of a path after its ends were already healed
  // into one component must not use more than |S|-1 edges.
  Rng rng(5);
  Graph g = graph::star_graph(5);
  HealingState st(g, rng);
  BinaryTreeHealStrategy heal;
  const HealAction a = delete_and_heal(g, st, heal, 0);
  EXPECT_EQ(a.new_graph_edges.size(), 3u);  // 4 singletons -> 3 edges
  EXPECT_TRUE(dash::testing::healing_graph_is_forest(g, st));
}

// ---- LineHeal -------------------------------------------------------

TEST(LineHeal, ReconnectsAsPath) {
  Rng rng(6);
  Graph g = graph::star_graph(6);
  HealingState st(g, rng);
  LineHealStrategy heal;
  const HealAction a = delete_and_heal(g, st, heal, 0);
  EXPECT_EQ(a.new_graph_edges.size(), 4u);
  EXPECT_TRUE(graph::is_connected(g));
  // Net deltas: 2 path endpoints gain one edge and lost the hub (0);
  // 3 interior nodes gain two and lost the hub (+1).
  std::size_t endpoints = 0, interior = 0;
  for (NodeId v = 1; v <= 5; ++v) {
    if (st.delta(v) == 0) ++endpoints;
    if (st.delta(v) == 1) ++interior;
  }
  EXPECT_EQ(endpoints, 2u);
  EXPECT_EQ(interior, 3u);
}

TEST(LineHeal, FullScheduleInvariants) {
  Rng rng(7);
  run_checked(graph::barabasi_albert(96, 2, rng),
              {.attack = "neighborofmax", .healer = "line", .seed = 8});
}

// ---- NoHeal ---------------------------------------------------------

TEST(NoHeal, NeverAddsEdges) {
  Rng rng(8);
  Graph g = graph::star_graph(5);
  HealingState st(g, rng);
  NoHealStrategy heal;
  const HealAction a = delete_and_heal(g, st, heal, 0);
  EXPECT_TRUE(a.new_graph_edges.empty());
  EXPECT_FALSE(graph::is_connected(g));
  EXPECT_EQ(st.max_delta_ever(), 0u);
}

TEST(NoHeal, ScheduleReportsDisconnection) {
  Rng rng(9);
  api::Network net(graph::star_graph(20), make_strategy("none"), rng);
  auto attacker = attack::make_attack("maxnode", 10);
  api::PlayOptions opts;
  opts.stop_condition = [](const api::Network& engine) {
    return engine.component_count() > 1;
  };
  const auto result = dash::testing::play_attack(net, *attacker, 0, opts);
  EXPECT_FALSE(result.stayed_connected);
  EXPECT_EQ(result.deletions, 1u);  // hub deletion shatters the star
}

// ---- DegreeCapped ---------------------------------------------------

TEST(DegreeCapped, RejectsTooSmallCap) {
  EXPECT_DEATH(DegreeCappedStrategy bad(1), "degree cap");
}

TEST(DegreeCapped, PerRoundIncreaseWithinCap) {
  Rng rng(10);
  Graph g = graph::star_graph(10);
  HealingState st(g, rng);
  DegreeCappedStrategy heal(2);
  delete_and_heal(g, st, heal, 0);
  EXPECT_LE(heal.max_round_increase(), 2u);
  EXPECT_TRUE(graph::is_connected(g));
  EXPECT_TRUE(dash::testing::healing_graph_is_forest(g, st));
}

TEST(DegreeCapped, FullScheduleRespectsCapEachRound) {
  Rng rng(11);
  const auto result = run_checked(
      graph::barabasi_albert(96, 2, rng),
      {.attack = "neighborofmax", .healer = "capped:2", .seed = 12});
  EXPECT_TRUE(result.stayed_connected);
}

TEST(DegreeCapped, NameIncludesCap) {
  DegreeCappedStrategy heal(3);
  EXPECT_EQ(heal.name(), "DegreeCapped(M=3)");
  EXPECT_EQ(heal.cap(), 3u);
}

}  // namespace
}  // namespace dash::core
